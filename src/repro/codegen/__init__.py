"""CUDA code generation for hybrid-tiled stencils (Section 4 of the paper).

* :mod:`repro.codegen.shared_mem` — shared-memory planning: per-field
  footprint boxes, copy-in/copy-out strategy, inter-tile reuse and alignment
  (Sections 4.2–4.2.3);
* :mod:`repro.codegen.kernel_ir` — the thread-level instruction mix of the
  core computation, including the register-reuse analysis that the unrolling
  of Section 4.3.2 enables;
* :mod:`repro.codegen.cuda` — emission of the host code and the two
  per-phase CUDA kernels (Section 4.1);
* :mod:`repro.codegen.ptx` — a pseudo-PTX rendering of the unrolled core
  computation (the paper's Figure 2);
* :mod:`repro.codegen.analysis` — the analytic execution profiler that turns
  a compiled program into the performance counters of Table 5.
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    "FieldFootprint": "repro.codegen.shared_mem",
    "SharedMemoryPlan": "repro.codegen.shared_mem",
    "plan_shared_memory": "repro.codegen.shared_mem",
    "CoreLoopProfile": "repro.codegen.kernel_ir",
    "analyze_core_loop": "repro.codegen.kernel_ir",
    "CudaCodeGenerator": "repro.codegen.cuda",
    "emit_core_ptx": "repro.codegen.ptx",
    "AnalyticProfiler": "repro.codegen.analysis",
    "ExecutionEstimate": "repro.codegen.analysis",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

"""GPU substrate: device models, performance counters, memory model, simulator.

The paper evaluates on two NVIDIA GPUs (GTX 470 and NVS 5200M) with nvcc and
nvprof.  Neither the hardware nor the CUDA toolchain is available here, so
this package provides the substitution described in DESIGN.md:

* :mod:`repro.gpu.device` — device descriptions with the architectural
  parameters the performance model needs;
* :mod:`repro.gpu.counters` — the nvprof-style counters the paper reports in
  Table 5 (global load instructions, DRAM/L2 read transactions, shared loads
  per request, global load efficiency);
* :mod:`repro.gpu.memory` — coalescing / transaction / bank-conflict model;
* :mod:`repro.gpu.simulator` — functional execution of compiled programs on
  NumPy arrays (small grids), validating schedules and shared-memory plans
  against the reference interpreter and collecting exact counters;
* :mod:`repro.gpu.perf_model` — analytic (roofline-style) conversion of the
  counted quantities into execution times, GFLOPS and GStencils/s.
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    "GPUDevice": "repro.gpu.device",
    "GTX470": "repro.gpu.device",
    "NVS5200M": "repro.gpu.device",
    "get_device": "repro.gpu.device",
    "list_devices": "repro.gpu.device",
    "PerformanceCounters": "repro.gpu.counters",
    "CoalescingModel": "repro.gpu.memory",
    "SharedMemoryModel": "repro.gpu.memory",
    "PerformanceModel": "repro.gpu.perf_model",
    "PerformanceReport": "repro.gpu.perf_model",
    "FunctionalSimulator": "repro.gpu.simulator",
    "SimulationResult": "repro.gpu.simulator",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

"""repro — reproduction of "Hybrid Hexagonal/Classical Tiling for GPUs" (CGO 2014).

The package implements, in pure Python, the full compilation pipeline
described in the paper:

* a polyhedral substrate (:mod:`repro.polyhedral`) standing in for isl,
* a stencil front end (:mod:`repro.frontend`) standing in for pet,
* the program model and dependence analysis (:mod:`repro.model`),
* hexagonal, classical, hybrid and diamond tilings (:mod:`repro.tiling`),
* CUDA code generation with shared-memory management (:mod:`repro.codegen`),
* a GPU execution/performance model (:mod:`repro.gpu`),
* baseline compilers used in the paper's evaluation (:mod:`repro.baselines`),
* the benchmark stencils (:mod:`repro.stencils`), and
* experiment harnesses regenerating every table and figure
  (:mod:`repro.experiments`).

The supported library surface is :mod:`repro.api` — its one entry point is
the staged pipeline :class:`repro.api.Session` — together with the helpers
in :mod:`repro.stencils`.
"""

from typing import Any

from repro._lazy import resolve

__version__ = "1.0.0"

# Public names re-exported lazily so that importing a submodule (for example
# ``repro.polyhedral``) does not pull in the whole compiler stack.
_EXPORTS = {
    "Session": "repro.api",
    "OptimizationConfig": "repro.api",
    "TileSizes": "repro.api",
    "get_stencil": "repro.stencils",
    "list_stencils": "repro.stencils",
    "parse_stencil": "repro.frontend",
    "register_from_source": "repro.stencils",
    "FrontendError": "repro.frontend",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

"""``repro.api`` — the public, staged compilation API.

This package is the supported library surface of the reproduction.  Clients
(the ``hexcc`` CLI, the bench runner, the experiment harnesses, the examples
and downstream users) program against it:

* :class:`Session` / :class:`PipelineRun` — the one entry point: the staged
  pass pipeline with typed artifacts, ``stop_after=``, per-pass
  instrumentation and :meth:`PipelineRun.simulate_and_check`;
* the artifact types (:class:`ParsedProgram` → :class:`CanonicalIR` →
  :class:`TilingPlan` → :class:`MemoryPlan` → :class:`GeneratedCode` →
  :class:`AnalysisBundle` → :class:`VerificationReport`) and the
  :data:`STAGES` ordering;
* the three tiling strategies, ``hybrid`` / ``classical`` / ``diamond``,
  looked up by name (:func:`get_strategy`, :func:`list_strategies`);
* the compilation options (:class:`OptimizationConfig`, :class:`TileSizes`,
  :func:`table4_configurations`).

The names below are re-exported lazily so importing :mod:`repro.api` stays
cheap; ``__all__`` is pinned by an API-snapshot test
(``tests/api/test_surface.py``) — extending the surface is a deliberate,
test-acknowledged act.
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    # staged pipeline
    "Session": "repro.api.session",
    "PipelineRun": "repro.api.session",
    "PassEvent": "repro.api.session",
    "CompilationRequest": "repro.api.session",
    # stage artifacts
    "STAGES": "repro.api.artifacts",
    "ParsedProgram": "repro.api.artifacts",
    "CanonicalIR": "repro.api.artifacts",
    "TilingPlan": "repro.api.artifacts",
    "MemoryPlan": "repro.api.artifacts",
    "GeneratedCode": "repro.api.artifacts",
    "AnalysisBundle": "repro.api.artifacts",
    "VerificationReport": "repro.api.artifacts",
    # tiling strategies
    "get_strategy": "repro.api.strategies",
    "list_strategies": "repro.api.strategies",
    # compilation options
    "OptimizationConfig": "repro.api.config",
    "TileSizes": "repro.api.config",
    "table4_configurations": "repro.api.config",
    # errors
    "PipelineError": "repro.api.errors",
    "StrategyError": "repro.api.errors",
    "SimulationMismatchError": "repro.api.errors",
    # program sources: the stencil library and the C front end
    "get_stencil": "repro.stencils",
    "list_stencils": "repro.stencils",
    "register_from_source": "repro.stencils",
    "unregister": "repro.stencils",
    "parse_stencil": "repro.frontend",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

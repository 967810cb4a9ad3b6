"""Typed, frozen stage artifacts of the compilation pipeline.

Each pipeline stage consumes the artifacts of the stages before it and
produces exactly one artifact:

====================  ======================  ==============================
stage                 artifact                wraps
====================  ======================  ==============================
``parse``             :class:`ParsedProgram`  :class:`StencilProgram`
``canonicalize``      :class:`CanonicalIR`    :class:`CanonicalForm`
``tiling``            :class:`TilingPlan`     a tiling (strategy-specific)
``memory``            :class:`MemoryPlan`     :class:`SharedMemoryPlan`
``codegen``           :class:`GeneratedCode`  CUDA source + core profiles
``analysis``          :class:`AnalysisBundle` counters + roofline report
``verify``            :class:`VerificationReport` race + lint verdicts
====================  ======================  ==============================

Every artifact is a frozen record (:mod:`repro._record`) with a
``summary()`` of JSON-safe scalars used by ``hexcc inspect`` and the
instrumentation events.  Its layout needs no version of its own: a pass's
cache key hashes the compiler code (:func:`repro.cache.keys.stage_key`), so
an artifact whose layout changed is never served from a stale cache entry.
"""

from __future__ import annotations

from repro._record import dataclass
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # heavyweight types only needed for annotations
    from repro.codegen.analysis import ExecutionEstimate
    from repro.codegen.kernel_ir import CoreLoopProfile
    from repro.codegen.shared_mem import SharedMemoryPlan
    from repro.gpu.perf_model import PerformanceReport
    from repro.model.preprocess import CanonicalForm
    from repro.model.program import StencilProgram
    from repro.tiling.hybrid import TileSizes
    from repro.tiling.tile_size import TileCostEstimate
    from repro.verify.report import LintReport, ScheduleVerdict

#: Pipeline stage names, in execution order.
STAGES: tuple[str, ...] = (
    "parse",
    "canonicalize",
    "tiling",
    "memory",
    "codegen",
    "analysis",
    "verify",
)


def _json_safe(value: Any) -> Any:
    """Clamp a summary value to JSON-representable scalars."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class ParsedProgram:
    """The front-end output: a stencil program, optionally with its source."""

    program: StencilProgram
    source: str | None = None  # original text when parsed from C source

    def summary(self) -> dict[str, Any]:
        program = self.program
        return _json_safe(
            {
                "name": program.name,
                "dimensions": program.ndim,
                "sizes": tuple(program.sizes),
                "time_steps": program.time_steps,
                "statements": len(program.statements),
            }
        )


@dataclass(frozen=True)
class CanonicalIR:
    """The canonical schedule space and dependence analysis (Section 3.2)."""

    canonical: CanonicalForm

    def summary(self) -> dict[str, Any]:
        canonical = self.canonical
        return _json_safe(
            {
                "space_dims": canonical.space_dims,
                "num_statements": canonical.num_statements,
                "dependences": len(canonical.dependences),
                "distance_vectors": [list(v) for v in canonical.distance_vectors],
                "logical_time_extent": canonical.logical_time_extent,
            }
        )


@dataclass(frozen=True)
class TilingPlan:
    """One tiling of the canonical space, produced by a named strategy.

    ``tiling`` is strategy-specific: :class:`repro.tiling.hybrid.HybridTiling`
    for the ``hybrid`` strategy, the analysis objects of
    :mod:`repro.tiling.classical` / :mod:`repro.tiling.diamond` for the
    comparison strategies.  Only plans with ``supports_codegen=True`` can
    continue into the ``memory`` and later stages.
    """

    strategy: str
    sizes: TileSizes | None
    tiling: Any
    tile_cost: TileCostEstimate | None = None
    supports_codegen: bool = False
    details: Mapping[str, Any] | None = None

    def summary(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "strategy": self.strategy,
            "supports_codegen": self.supports_codegen,
        }
        if self.sizes is not None:
            data["tile_height"] = self.sizes.height
            data["tile_widths"] = tuple(self.sizes.widths)
        if self.tile_cost is not None:
            data["model_loads_per_tile"] = self.tile_cost.loads
            data["model_iterations_per_tile"] = self.tile_cost.iterations
            data["model_shared_memory_bytes"] = self.tile_cost.shared_memory_bytes
            if self.tile_cost.rejections:
                # Why the rest of the §3.7 search grid was pruned (legality,
                # shared memory overflow) — surfaced by
                # ``hexcc inspect --stop-after tiling --json``.
                data["model_pruned"] = dict(self.tile_cost.rejections)
            runner_up = self.tile_cost.runner_up
            if runner_up is not None:
                # The second-best legal grid point and how far its ratio
                # trails the pick's.  Nested, so it is no bench counter.
                data["model_runner_up"] = {
                    "tile_height": runner_up.sizes.height,
                    "tile_widths": tuple(runner_up.sizes.widths),
                    "load_to_compute": runner_up.load_to_compute,
                    "margin": runner_up.load_to_compute
                    - self.tile_cost.load_to_compute,
                }
        if self.details:
            data.update(self.details)
        return _json_safe(data)


@dataclass(frozen=True)
class MemoryPlan:
    """The shared-memory strategy of Section 4.2."""

    plan: SharedMemoryPlan

    def summary(self) -> dict[str, Any]:
        plan = self.plan
        return _json_safe(
            {
                "uses_shared_memory": plan.uses_shared_memory,
                "shared_bytes_per_block": plan.shared_bytes_per_block,
                "loads_per_tile": plan.loads_per_tile,
                "reused_per_tile": plan.reused_per_tile,
                "stores_per_tile": plan.stores_per_tile,
                "aligned": plan.aligned,
                "fields": [footprint.field for footprint in plan.footprints],
            }
        )


@dataclass(frozen=True)
class GeneratedCode:
    """The generated CUDA source plus the core-loop instruction profiles."""

    cuda_source: str
    core_profiles: tuple[CoreLoopProfile, ...]

    def summary(self) -> dict[str, Any]:
        return _json_safe(
            {
                "cuda_lines": self.cuda_source.count("\n") + 1,
                "kernels": self.cuda_source.count("__global__"),
                "core_profiles": [profile.statement for profile in self.core_profiles],
            }
        )


@dataclass(frozen=True)
class AnalysisBundle:
    """Analytic execution counters and the roofline performance estimate."""

    estimate: ExecutionEstimate
    report: PerformanceReport
    device_name: str

    def summary(self) -> dict[str, Any]:
        counts = self.estimate.tile_counts
        return _json_safe(
            {
                "device": self.device_name,
                "gflops": round(self.report.gflops, 3),
                "gstencils_per_second": round(self.report.gstencils_per_second, 4),
                "bound_by": self.report.bound_by,
                "time_tiles": counts.time_tiles,
                "blocks_per_launch": counts.blocks_per_launch,
                "total_tiles": counts.total_tiles,
            }
        )


@dataclass(frozen=True)
class VerificationReport:
    """Static verification verdicts: symbolic races + generated-CUDA lint.

    ``schedule`` is the symbolic race detector's verdict over all problem
    sizes (:mod:`repro.verify.symbolic`); ``lint`` the static linter's
    findings over the generated CUDA (:mod:`repro.verify.lint`), ``None``
    for analysis-only strategies that generate no code.
    """

    strategy: str
    schedule: "ScheduleVerdict"
    lint: "LintReport | None" = None

    @property
    def ok(self) -> bool:
        """No races, full phase coverage, no error-severity lint findings."""
        return self.schedule.ok and (self.lint is None or self.lint.ok)

    def summary(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "strategy": self.strategy,
            "ok": self.ok,
            "schedule_ok": self.schedule.ok,
            "races": len(self.schedule.races),
            "coverage_ok": self.schedule.coverage_ok,
            "dependences_checked": self.schedule.dependences_checked,
            "classes_checked": self.schedule.classes_checked,
        }
        if self.schedule.races:
            data["race_messages"] = [
                race.message for race in self.schedule.races[:5]
            ]
        if self.lint is not None:
            data["lint_errors"] = len(self.lint.errors)
            data["lint_warnings"] = len(self.lint.warnings)
            if self.lint.findings:
                data["lint_messages"] = [
                    str(finding) for finding in self.lint.findings[:5]
                ]
        return _json_safe(data)


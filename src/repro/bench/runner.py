"""The harness behind ``hexcc bench``.

Two suites measure the cost of this reproduction's own machinery:

* **compile** — a :class:`~repro.api.Session` run through ``codegen`` on
  every stencil at its paper-scale problem size, with model-selected tile
  sizes.  Each repeat uses a fresh session so its in-memory pass LRU does
  not short-circuit the measurement; with a disk cache
  (:class:`~repro.cache.DiskCache`) attached, the warmup populates or hits
  the persistent entry and the repeats measure the steady cross-run state
  (pass no cache to measure the raw pipeline).  The recorded counters are
  the analytic execution estimate (deterministic for a given code state).
* **simulate** — exhaustive schedule validation plus functional simulation
  on small problem instances (the same configuration the test suite uses).
  The recorded counters are the simulator's exact counters.

Both suites measure one stencil after another in this process, in input
order.  Wall times are wall-clock and therefore machine-dependent; counters
are deterministic and double as a semantic fingerprint of the pipeline.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Any

from repro import obs
from repro._record import dataclass, fields
from repro.bench.schema import make_report, timing_entry
from repro.cache import DiskCache

# Stencils exercised by ``--quick`` (CI): the Figure-1 stencil, a dense 2-D
# stencil, the multi-statement kernel, one 3-D stencil and the 1-D case.
QUICK_STENCILS = ("jacobi_1d", "jacobi_2d", "heat_2d", "fdtd_2d", "laplacian_3d")

# Small problem instances used by the simulate suite, by dimensionality:
# (sizes, time steps).  Chosen to match the scale of the test suite so the
# exhaustive validator stays fast.
SIMULATE_INSTANCES: dict[int, tuple[tuple[int, ...], int]] = {
    1: ((128,), 16),
    2: ((16, 16), 6),
    3: ((10, 10, 10), 4),
}


@dataclass(frozen=True)
class BenchOptions:
    """What ``hexcc bench`` should run."""

    suites: tuple[str, ...] = ("compile", "simulate")
    quick: bool = False
    repeats: int | None = None  # per-suite default when None
    stencils: tuple[str, ...] | None = None  # library selection when None
    disk_cache: DiskCache | None = None  # shared artefact cache, if any

    def effective_repeats(self) -> int:
        if self.repeats is not None:
            return max(1, self.repeats)
        return 3 if self.quick else 5

    def effective_stencils(self) -> tuple[str, ...]:
        from repro.stencils import list_stencils

        if self.stencils is not None:
            return self.stencils
        if self.quick:
            return QUICK_STENCILS
        return tuple(list_stencils())


def _counters_dict(counters: Any) -> dict[str, float]:
    return {item.name: float(getattr(counters, item.name)) for item in fields(counters)}


def _time_call(function) -> tuple[float, Any]:
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


def measure_compile_stencil(
    name: str, repeats: int, disk_cache: DiskCache | None = None
) -> dict[str, Any]:
    """One compile-suite measurement: the stencil's report entry."""
    from repro.api import Session
    from repro.codegen.analysis import AnalyticProfiler
    from repro.stencils import get_stencil

    program = get_stencil(name)
    # Warmup: process-wide caches, page-in; with a disk cache this is also
    # the compile that populates (or hits) the persistent entry, so the
    # measured repeats below see the steady cross-run state.
    Session(disk_cache=disk_cache).run(program)
    runs: list[float] = []
    stage_runs: dict[str, list[float]] = {}
    stage_sources: dict[str, dict[str, int]] = {}
    run = None
    with obs.span("bench.measure", suite="compile", stencil=name, repeats=repeats):
        for _ in range(repeats):
            session = Session(disk_cache=disk_cache)
            elapsed, run = _time_call(lambda: session.run(program))
            runs.append(elapsed)
            # Per-stage wall times from the pass spans of the measured run,
            # keyed by span name so bench, inspect and profile agree; the
            # cache provenance rides along so regression attribution can
            # tell a pass regression from a cold-vs-warm-cache flip.
            for event in run.events:
                key = f"pass.{event.name}"
                stage_runs.setdefault(key, []).append(event.wall_s)
                counts = stage_sources.setdefault(key, {})
                counts[event.source] = counts.get(event.source, 0) + 1
    tiling = run.artifact("tiling").tiling
    config = run.request.config
    estimate = AnalyticProfiler(
        tiling, run.artifact("memory").plan, config, run.request.device
    ).estimate(run.artifact("codegen").core_profiles)
    return {
        "wall_s": timing_entry(runs),
        "timings": {
            stage: timing_entry(values) for stage, values in stage_runs.items()
        },
        "sources": stage_sources,
        "counters": _counters_dict(estimate.counters),
        "meta": {
            "sizes": list(program.sizes),
            "steps": program.time_steps,
            "tile_sizes": {
                "h": tiling.sizes.height,
                "w": list(tiling.sizes.widths),
            },
            "config": config.label,
        },
    }


def measure_simulate_stencil(
    name: str, repeats: int, disk_cache: DiskCache | None = None
) -> dict[str, Any]:
    """One simulate-suite measurement: the stencil's report entry."""
    from repro.api import Session
    from repro.gpu.simulator import FunctionalSimulator
    from repro.stencils import get_definition, get_stencil
    from repro.tiling.validate import validate_hybrid_tiling

    definition = get_definition(name)
    sizes, steps = SIMULATE_INSTANCES[definition.dimensions]
    program = get_stencil(name, sizes=sizes, steps=steps)
    run = Session(disk_cache=disk_cache).run(program)
    tiling = run.artifact("tiling").tiling
    plan = run.artifact("memory").plan

    def validate():
        return validate_hybrid_tiling(tiling)

    def simulate():
        return FunctionalSimulator(tiling, plan, run.request.config).run(seed=0)

    # Warmup: the first validate/simulate populates the point-enumeration
    # and schedule-array memos; the gate should measure the stable,
    # deterministic warm path.
    report = validate()
    if not report.ok:
        raise RuntimeError(f"{name}: schedule validation failed: {report}")
    simulate()

    validate_runs: list[float] = []
    simulate_runs: list[float] = []
    total_runs: list[float] = []
    simulation = None
    with obs.span("bench.measure", suite="simulate", stencil=name, repeats=repeats):
        for _ in range(repeats):
            elapsed_validate, report = _time_call(validate)
            if not report.ok:
                raise RuntimeError(f"{name}: schedule validation failed: {report}")
            elapsed_simulate, simulation = _time_call(simulate)
            validate_runs.append(elapsed_validate)
            simulate_runs.append(elapsed_simulate)
            total_runs.append(elapsed_validate + elapsed_simulate)
    return {
        "wall_s": timing_entry(total_runs),
        "stages": {
            "validate_s": timing_entry(validate_runs),
            "simulate_s": timing_entry(simulate_runs),
        },
        "counters": _counters_dict(simulation.counters),
        "meta": {
            "sizes": list(sizes),
            "steps": steps,
            "tiles_executed": simulation.tiles_executed,
            "full_tiles": simulation.full_tiles,
            "partial_tiles": simulation.partial_tiles,
        },
    }


def run_bench(options: BenchOptions) -> dict[str, Any]:
    """Run the requested suites and return a schema-valid report."""
    unknown = [s for s in options.suites if s not in ("compile", "simulate")]
    if unknown:
        raise ValueError(f"unknown bench suites {unknown}; known: compile, simulate")
    repeats = options.effective_repeats()
    stencils = options.effective_stencils()
    measures = {
        "compile": measure_compile_stencil,
        "simulate": measure_simulate_stencil,
    }
    suites: dict[str, dict[str, Any]] = {}
    cache = options.disk_cache
    with obs.span(
        "bench.run", suites=",".join(options.suites), stencils=len(stencils)
    ):
        for suite, measure in measures.items():
            if suite in options.suites:
                suites[suite] = {
                    name: measure(name, repeats, cache) for name in stencils
                }
    report = make_report(suites, quick=options.quick, repeats=repeats)
    if cache is not None:
        report["disk_cache"] = {
            "root": str(cache.root),
            "hits": cache.hits,
            "misses": cache.misses,
            "stores": cache.stores,
        }
    return report


def format_report(report: dict[str, Any]) -> str:
    """A short human-readable table of one report (for the CLI)."""
    lines: list[str] = []
    for suite_name, suite in report["suites"].items():
        lines.append(f"{suite_name} suite ({report['repeats']} repeats):")
        for stencil, entry in sorted(suite["stencils"].items()):
            wall = entry["wall_s"]
            lines.append(
                f"  {stencil:20s} median {wall['median'] * 1e3:9.3f} ms"
                f"  min {wall['min'] * 1e3:9.3f} ms"
            )
    cache = report.get("disk_cache")
    if cache is not None:
        lines.append(
            f"disk cache: {cache['hits']} hits, {cache['misses']} misses, "
            f"{cache['stores']} stores ({cache['root']})"
        )
    return "\n".join(lines)


def select_stencils(names: Sequence[str]) -> tuple[str, ...]:
    """Validate a user-provided stencil list against the registry."""
    from repro.stencils import list_stencils

    known = set(list_stencils())
    bad = [n for n in names if n not in known]
    if bad:
        raise ValueError(f"unknown stencils {bad}; known: {sorted(known)}")
    return tuple(names)

"""Pluggable tuning objectives: how one candidate configuration is scored.

Every objective maps a candidate to a scalar **cost** (lower is better):

* ``model`` — the roofline time estimate of
  :class:`repro.gpu.perf_model.PerformanceModel` on the paper-scale problem
  (deterministic; what the CI ``tune-smoke`` gate uses);
* ``simulate`` — measured wall time of the functional simulator on a
  scaled-down instance of the program (an *empirical* objective; noisy, so
  it takes the best of ``repeats`` runs);
* ``counters`` — a counter-weighted traffic cost derived from the analytic
  execution counters (memory-system pressure per stencil update), cheaper
  than the full roofline conversion and independent of clock parameters.

Candidates are evaluated through a :class:`repro.api.Session` resuming from
the shared ``canonicalize`` artifact: the per-pass disk cache means the
parse/canonicalize prefix is computed once per sweep and every repeated
candidate costs almost nothing — which is what makes warm re-runs of a whole
sweep cheap.  :func:`evaluate_candidate` is a module-level function over a
picklable job description so :func:`repro.engine.map_ordered` can fan
evaluations across worker processes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from collections.abc import Callable, Mapping
from typing import Any

from repro import obs
from repro.tuning.space import Candidate

#: Small-instance shapes used by the ``simulate`` objective, by dimension —
#: the same scale the bench simulate suite and the test suite run at.
SIMULATE_INSTANCES: dict[int, tuple[tuple[int, ...], int]] = {
    1: ((128,), 16),
    2: ((16, 16), 6),
    3: ((10, 10, 10), 4),
}

#: Weights of the ``counters`` objective, in relative cost per event.  DRAM
#: transactions dominate (Section 6.2's bound-by analysis), L2 hits are an
#: order of magnitude cheaper, shared-memory traffic and instruction issue
#: cost another order less.
COUNTER_WEIGHTS: Mapping[str, float] = {
    "dram_read_transactions": 1.0,
    "dram_write_transactions": 1.0,
    "l2_read_transactions": 0.1,
    "shared_load_transactions": 0.01,
    "shared_store_requests": 0.01,
    "instructions": 0.001,
}


@dataclass(frozen=True)
class EvaluationJob:
    """Everything one candidate evaluation needs (picklable for the engine)."""

    program: object  # StencilProgram — picklable expression trees
    candidate: Candidate
    objective: str
    device: object  # GPUDevice
    config: object | None  # OptimizationConfig
    cache_root: str | None  # DiskCache root shared with the parent process
    repeats: int = 2  # simulate-objective measurement repeats


@dataclass(frozen=True)
class TuningTrial:
    """The outcome of evaluating one candidate."""

    candidate: Candidate
    score: float
    ok: bool = True
    error: str | None = None

    def describe(self) -> str:
        if not self.ok:
            return f"{self.candidate.label():<32} FAILED ({self.error})"
        return f"{self.candidate.label():<32} {self.score:.6g}"


#: One pipeline session per (cache root, device) per process: candidates
#: evaluated by the same worker share the in-memory artifact LRU, so the
#: canonicalize artifact — and the instance-enumeration memo hanging off its
#: :class:`CanonicalForm` — is computed once per process, not per candidate.
_SESSIONS: dict[tuple[str | None, str], Any] = {}


def _session(job: EvaluationJob):
    from repro.api import Session
    from repro.cache import DiskCache

    key = (job.cache_root, job.device.name)
    session = _SESSIONS.get(key)
    if session is None:
        cache = DiskCache(job.cache_root) if job.cache_root else None
        session = Session(device=job.device, strategy="hybrid", disk_cache=cache)
        _SESSIONS[key] = session
    return session, session.disk_cache


def _threads_per_block(candidate: Candidate) -> int | None:
    if candidate.threads is None:
        return None
    return math.prod(candidate.threads)


def _score_model(job: EvaluationJob) -> float:
    """Roofline total-time estimate at the paper-scale problem size."""
    from repro.gpu.perf_model import PerformanceModel

    session, cache = _session(job)
    run = session.run(
        job.program,
        tile_sizes=job.candidate.sizes,
        config=job.config,
        threads=job.candidate.threads,
        stop_after="analysis",
    )
    bundle = run.artifact("analysis")
    threads = _threads_per_block(job.candidate)
    if threads is None:
        score = bundle.report.total_time_s
    else:
        # Launch-config tuning: re-run the roofline conversion with the
        # candidate's block size (occupancy changes, counters do not).
        estimate = bundle.estimate
        launch = replace(estimate.launch, threads_per_block=threads)
        score = (
            PerformanceModel(job.device).estimate(estimate.counters, launch).total_time_s
        )
    _flush(cache)
    return score


def _score_counters(job: EvaluationJob) -> float:
    """Weighted memory-system pressure per stencil update."""
    session, cache = _session(job)
    run = session.run(
        job.program,
        tile_sizes=job.candidate.sizes,
        config=job.config,
        threads=job.candidate.threads,
        stop_after="analysis",
    )
    counters = run.artifact("analysis").estimate.counters
    updates = max(1.0, counters.stencil_updates)
    cost = sum(
        weight * getattr(counters, name, 0.0)
        for name, weight in COUNTER_WEIGHTS.items()
    )
    _flush(cache)
    return cost / updates


def _score_simulate(job: EvaluationJob) -> float:
    """Measured wall time of the functional simulator on a small instance.

    Only the simulation itself is timed.  The deterministic setup — the
    compiled pipeline prefix and the columnar :class:`ScheduleArrays` of the
    candidate — is shared through the per-pass disk cache (the schedule
    arrays under a tuning-owned ``tuning-schedule`` stage key), so a warm
    re-run of a sweep pays only the measured simulations.
    """
    from repro.gpu.simulator import FunctionalSimulator
    from repro.stencils import get_definition, get_stencil
    from repro.tiling.hybrid import HybridTiling

    program = job.program
    try:
        definition = get_definition(program.name)
        sizes, steps = SIMULATE_INSTANCES[definition.dimensions]
        small = get_stencil(definition.name, sizes=sizes, steps=steps)
    except KeyError:
        # Not a library stencil (e.g. parsed from user C source): simulate
        # the program at its own size.  Callers should keep it small.
        small = program

    session, cache = _session(job)
    # Codegen is not needed to simulate; stop at the shared-memory plan.
    run = session.run(
        small,
        tile_sizes=job.candidate.sizes,
        config=job.config,
        threads=job.candidate.threads,
        stop_after="memory",
    )
    tiling = run.artifact("tiling").tiling
    shared_canonical = run.artifact("canonicalize").canonical
    if tiling.canonical is not shared_canonical:
        # The tiling artifact came from the disk cache and carries its own
        # unpickled CanonicalForm; re-anchor on the session-shared one so
        # the instance-enumeration memo is shared across candidates.
        tiling = HybridTiling(shared_canonical, run.artifact("tiling").sizes)
    _install_schedule_arrays(tiling, run, cache)
    plan = run.artifact("memory").plan
    config = run.request.config
    best = float("inf")
    for _ in range(max(1, job.repeats)):
        simulator = FunctionalSimulator(tiling, plan, config)
        start = time.perf_counter()
        simulator.run(seed=0)
        best = min(best, time.perf_counter() - start)
    _flush(cache)
    return best


def _install_schedule_arrays(tiling, run, cache) -> None:
    """Fill the tiling's schedule-array memo from the disk cache, or warm it.

    The columnar schedule is a pure function of (program content, tile
    sizes, storage) and by far the most expensive part of a simulation-based
    evaluation; caching it turns warm sweep re-runs into pure measurement.
    """
    from repro.api.session import program_digest
    from repro.cache.keys import stage_key
    from repro.tiling.schedule_arrays import ScheduleArrays

    if cache is None:
        tiling.schedule_arrays()
        return
    key = stage_key(
        stage="tuning-schedule",
        stage_schema=1,
        strategy="hybrid",
        parts=[
            f"program={program_digest(run.artifact('parse').program)}",
            f"tile-sizes={run.request.tile_sizes!r}",
            f"storage={run.request.storage}",
        ],
    )
    cached = cache.get(key, stage="tuning-schedule")
    if isinstance(cached, ScheduleArrays):
        tiling._schedule_arrays_cache = cached
        return
    cache.put(key, tiling.schedule_arrays(), stage="tuning-schedule")


def _flush(cache) -> None:
    if cache is not None:
        cache.flush_stats()


_OBJECTIVES: dict[str, Callable[[EvaluationJob], float]] = {
    "model": _score_model,
    "simulate": _score_simulate,
    "counters": _score_counters,
}


def list_objectives() -> list[str]:
    """Names of the registered objectives, sorted."""
    return sorted(_OBJECTIVES)


def register_objective(
    name: str, scorer: Callable[[EvaluationJob], float], replace: bool = False
) -> None:
    """Register a custom objective (must be importable in worker processes)."""
    if not name:
        raise ValueError("objectives must have a non-empty name")
    if name in _OBJECTIVES and not replace:
        raise ValueError(f"objective {name!r} is already registered")
    _OBJECTIVES[name] = scorer


def evaluate_candidate(job: EvaluationJob) -> TuningTrial:
    """Score one candidate; failures become infinite-cost trials, not crashes.

    A candidate that the pipeline rejects (degenerate tiling, planner error)
    is reported as a failed trial so a sweep survives hostile corners of the
    space instead of aborting after hours of work.
    """
    try:
        scorer = _OBJECTIVES[job.objective]
    except KeyError:
        raise ValueError(
            f"unknown tuning objective {job.objective!r}; known: {list_objectives()}"
        ) from None
    with obs.span(
        "tune.trial", candidate=job.candidate.label(), objective=job.objective
    ) as span:
        try:
            return TuningTrial(candidate=job.candidate, score=float(scorer(job)))
        except Exception as error:  # noqa: BLE001 — any pipeline failure is data
            span.set(failed=True)
            return TuningTrial(
                candidate=job.candidate,
                score=float("inf"),
                ok=False,
                error=f"{type(error).__name__}: {error}",
            )

"""Tuning objectives: how one candidate configuration is scored.

Both objectives map a candidate to a scalar **cost** (lower is better), are
deterministic and are evaluated on the modelled GPU at the paper-scale
problem size — never by timing this host:

* ``model`` — the roofline time estimate of
  :class:`repro.gpu.perf_model.PerformanceModel` (what ``--tuned`` prefers
  and what the CI ``tune-smoke`` gate uses);
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
from dataclasses import dataclass, replace
from collections.abc import Callable, Mapping
from typing import Any

from repro import obs
from repro.tuning.space import Candidate

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
#: canonicalize artifact is computed once per process, not per candidate.
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


def _flush(cache) -> None:
    if cache is not None:
        cache.flush_stats()


_OBJECTIVES: dict[str, Callable[[EvaluationJob], float]] = {
    "model": _score_model,
    "counters": _score_counters,
}


def list_objectives() -> list[str]:
    """Names of the objectives, sorted."""
    return sorted(_OBJECTIVES)


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

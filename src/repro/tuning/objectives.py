"""The tuning objective: how one candidate tile size is scored.

A candidate's score is the number the analysis pass already reports for it:
``run.artifact("analysis").report.total_time_s``, the roofline time
estimate of :class:`repro.gpu.perf_model.PerformanceModel` on the target
device at the paper-scale problem size (lower is better).  It is
deterministic — never a timing of this host — so a recorded score equals
what ``hexcc compile --tuned`` prints for the same sizes.  The database
records it under the objective name ``model``.

Candidates are evaluated through a :class:`repro.api.Session` resuming from
the shared ``canonicalize`` artifact: the per-pass disk cache means the
parse/canonicalize prefix is computed once per sweep and every repeated
candidate costs almost nothing — which is what makes warm re-runs of a whole
sweep cheap.  :func:`evaluate_candidate` is a module-level function over a
picklable job description so :func:`repro.engine.map_ordered` can fan
evaluations across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.tiling.hybrid import TileSizes


@dataclass(frozen=True)
class EvaluationJob:
    """Everything one candidate evaluation needs (picklable for the engine)."""

    program: object  # StencilProgram — picklable expression trees
    candidate: TileSizes
    device: object  # GPUDevice
    config: object | None  # OptimizationConfig
    cache_root: str | None  # DiskCache root shared with the parent process


@dataclass(frozen=True)
class TuningTrial:
    """The outcome of evaluating one candidate."""

    candidate: TileSizes
    score: float
    ok: bool = True
    error: str | None = None

    def describe(self) -> str:
        if not self.ok:
            return f"{self.candidate!s:<32} FAILED ({self.error})"
        return f"{self.candidate!s:<32} {self.score:.6g}"


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
    return session


def _score(job: EvaluationJob) -> float:
    """The analysis pass's roofline time at the candidate's tile sizes."""
    session = _session(job)
    run = session.run(
        job.program,
        tile_sizes=job.candidate,
        config=job.config,
        stop_after="analysis",
    )
    if session.disk_cache is not None:
        session.disk_cache.flush_stats()
    return run.artifact("analysis").report.total_time_s


def evaluate_candidate(job: EvaluationJob) -> TuningTrial:
    """Score one candidate; failures become infinite-cost trials, not crashes.

    A candidate that the pipeline rejects (degenerate tiling, planner error)
    is reported as a failed trial so a sweep survives hostile corners of the
    space instead of aborting after hours of work.
    """
    with obs.span("tune.trial", candidate=str(job.candidate)) as span:
        try:
            return TuningTrial(candidate=job.candidate, score=float(_score(job)))
        except Exception as error:  # noqa: BLE001 — any pipeline failure is data
            span.set(failed=True)
            return TuningTrial(
                candidate=job.candidate,
                score=float("inf"),
                ok=False,
                error=f"{type(error).__name__}: {error}",
            )

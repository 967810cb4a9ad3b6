"""The tuning objective: how one candidate tile size is scored.

A candidate's score is the number the analysis pass already reports for it:
``run.artifact("analysis").report.total_time_s``, the roofline time
estimate of :class:`repro.gpu.perf_model.PerformanceModel` on the target
device at the paper-scale problem size (lower is better).  It is
deterministic — never a timing of this host — so a recorded score equals
what ``hexcc compile --tuned`` prints for the same sizes.  The database
records it under the objective name ``model``.

The tuner scores every candidate in its own process on one in-memory
:class:`repro.api.Session`, whose pass LRU keeps the ``canonicalize``
artifact, so each candidate costs only its tiling, memory, codegen and
analysis passes.  Nothing of a scored candidate is written to disk but its
``tuning-trial`` cache entry (see :mod:`repro.tuning.tuner`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import obs
from repro._record import dataclass
from repro.tiling.hybrid import TileSizes

if TYPE_CHECKING:
    from repro.api.config import OptimizationConfig
    from repro.api.session import Session
    from repro.model.program import StencilProgram


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


def evaluate_candidate(
    session: Session,
    program: StencilProgram,
    candidate: TileSizes,
    config: OptimizationConfig | None = None,
) -> TuningTrial:
    """Score one candidate; failures become infinite-cost trials, not crashes.

    The score is the analysis pass's roofline time at the candidate's tile
    sizes.  A candidate that the pipeline rejects (degenerate tiling,
    planner error) is reported as a failed trial so a sweep survives hostile
    corners of the space instead of aborting after hours of work.
    """
    with obs.span("tune.trial", candidate=str(candidate)) as span:
        try:
            run = session.run(
                program, tile_sizes=candidate, config=config, stop_after="analysis"
            )
            score = float(run.artifact("analysis").report.total_time_s)
            return TuningTrial(candidate=candidate, score=score)
        except Exception as error:  # noqa: BLE001 — any pipeline failure is data
            span.set(failed=True)
            return TuningTrial(
                candidate=candidate,
                score=float("inf"),
                ok=False,
                error=f"{type(error).__name__}: {error}",
            )

"""The tuning score: determinism, failure tolerance, agreement with analysis."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.api.config import OptimizationConfig
from repro.gpu.device import GTX470
from repro.stencils import get_stencil
from repro.tiling.hybrid import TileSizes
from repro.tuning import TuningDatabase, baseline_db_path, evaluate_candidate


def _evaluate(candidate=None):
    return evaluate_candidate(
        Session(GTX470),
        get_stencil("jacobi_2d"),
        candidate or TileSizes.of(2, 4, 64),
        OptimizationConfig.default(),
    )


def test_model_objective_is_deterministic():
    first = _evaluate()
    second = _evaluate()
    assert first.ok and first.score > 0
    assert first.score == second.score


def test_pipeline_failure_becomes_failed_trial():
    # One width too few for a 2-D stencil: the tiling stage raises; the
    # evaluation must degrade to an infinite-score trial, not crash.
    trial = _evaluate(candidate=TileSizes.of(2, 4))
    assert not trial.ok
    assert trial.score == float("inf")
    assert trial.error


_BASELINE = TuningDatabase.load(baseline_db_path())


@pytest.mark.parametrize(
    "entry", sorted(_BASELINE, key=lambda e: e["program"]), ids=lambda e: e["program"]
)
def test_baseline_scores_are_the_analysis_pass_time(entry):
    """A recorded score is what the analysis pass reports at those sizes."""
    program = get_stencil(entry["program"])
    session = Session(GTX470)
    for recorded in (entry["best"], entry["baseline"]):
        sizes = TileSizes(recorded["height"], tuple(recorded["widths"]))
        run = session.run(program, tile_sizes=sizes, stop_after="analysis")
        assert run.artifact("analysis").report.total_time_s == recorded["score"]

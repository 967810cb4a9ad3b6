"""Tuning objectives: determinism and failure tolerance."""

from __future__ import annotations

import pytest

from repro.api.config import OptimizationConfig
from repro.gpu.device import GTX470
from repro.stencils import get_stencil
from repro.tiling.hybrid import TileSizes
from repro.tuning import Candidate, EvaluationJob, evaluate_candidate, list_objectives


def _job(objective, candidate=None):
    return EvaluationJob(
        program=get_stencil("jacobi_2d"),
        candidate=candidate or Candidate(TileSizes.of(2, 4, 64)),
        objective=objective,
        device=GTX470,
        config=OptimizationConfig.default(),
        cache_root=None,
    )


def test_objective_registry():
    assert list_objectives() == ["counters", "model"]


def test_unknown_objective_raises():
    with pytest.raises(ValueError, match="unknown tuning objective"):
        evaluate_candidate(_job("wall-clock"))


def test_model_objective_is_deterministic():
    first = evaluate_candidate(_job("model"))
    second = evaluate_candidate(_job("model"))
    assert first.ok and first.score > 0
    assert first.score == second.score


def test_model_objective_threads_change_the_score():
    plain = evaluate_candidate(_job("model"))
    threaded = evaluate_candidate(
        _job("model", candidate=Candidate(TileSizes.of(2, 4, 64), threads=(1, 32)))
    )
    assert threaded.ok
    assert threaded.score != plain.score


def test_counters_objective_is_deterministic_and_positive():
    first = evaluate_candidate(_job("counters"))
    second = evaluate_candidate(_job("counters"))
    assert first.ok and first.score > 0
    assert first.score == second.score


def test_pipeline_failure_becomes_failed_trial():
    # One width too few for a 2-D stencil: the tiling stage raises; the
    # evaluation must degrade to an infinite-score trial, not crash.
    trial = evaluate_candidate(
        _job("model", candidate=Candidate(TileSizes.of(2, 4)))
    )
    assert not trial.ok
    assert trial.score == float("inf")
    assert trial.error


"""Search strategies: budgets, determinism, hill-climbing behaviour."""

from __future__ import annotations

import json

import pytest

from repro.cache import DiskCache
from repro.gpu.device import GTX470
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tuning import (
    CandidateSpace,
    TuningDatabase,
    get_search_strategy,
    list_search_strategies,
    tune,
)
from repro.tuning.objectives import TuningTrial


@pytest.fixture(scope="module")
def space():
    return CandidateSpace(canonicalize(get_stencil("jacobi_2d")), GTX470)


def _fake_evaluate(batch):
    # Deterministic synthetic objective: prefer small tiles; no pipeline runs.
    return [
        TuningTrial(
            candidate=c,
            score=c.height * 100 + sum(c.widths),
        )
        for c in batch
    ]


def test_registry_lists_builtins():
    assert list_search_strategies() == ["grid", "hillclimb", "random"]
    for name in list_search_strategies():
        assert get_search_strategy(name).name == name


def test_unknown_strategy_raises():
    with pytest.raises(ValueError, match="unknown search strategy"):
        get_search_strategy("simulated-annealing")


def test_grid_respects_budget_and_covers_ends(space):
    trials = get_search_strategy("grid").search(space, _fake_evaluate, 10, seed=0)
    assert len(trials) == 10
    assert trials[0].candidate == space.enumerate()[0]


def test_grid_exhausts_small_spaces(space):
    budget = len(space) + 50
    trials = get_search_strategy("grid").search(space, _fake_evaluate, budget, seed=0)
    assert len(trials) == len(space)


def test_random_same_seed_same_trials(space):
    strategy = get_search_strategy("random")
    first = strategy.search(space, _fake_evaluate, 12, seed=7)
    second = strategy.search(space, _fake_evaluate, 12, seed=7)
    assert [t.candidate for t in first] == [t.candidate for t in second]


def test_random_different_seed_different_trials(space):
    strategy = get_search_strategy("random")
    first = strategy.search(space, _fake_evaluate, 12, seed=1)
    second = strategy.search(space, _fake_evaluate, 12, seed=2)
    assert [t.candidate for t in first] != [t.candidate for t in second]


def test_random_samples_without_replacement(space):
    trials = get_search_strategy("random").search(space, _fake_evaluate, 50, seed=3)
    candidates = [t.candidate for t in trials]
    assert len(candidates) == len(set(candidates)) == 50


def test_hillclimb_improves_and_respects_budget(space):
    start = space.enumerate()[len(space) - 1]  # a deliberately bad corner
    trials = get_search_strategy("hillclimb").search(
        space, _fake_evaluate, 15, seed=0, start=start
    )
    assert 0 < len(trials) <= 15
    best = min(trials, key=lambda t: t.score)
    assert best.score < trials[0].score  # walked downhill from the start


def test_hillclimb_never_revisits(space):
    trials = get_search_strategy("hillclimb").search(
        space, _fake_evaluate, 40, seed=0, start=space.enumerate()[0]
    )
    candidates = [t.candidate for t in trials]
    assert len(candidates) == len(set(candidates))


def test_tune_identical_seed_budget_byte_identical_entry(tmp_path):
    """Satellite: identical seed + budget => byte-identical DB entry."""
    program = get_stencil("jacobi_2d")
    entries = []
    for run in range(2):
        cache = DiskCache(tmp_path / f"cache-{run}")  # cold cache each run
        result = tune(
            program,
            strategy="random",
            budget=6,
            seed=11,
            disk_cache=cache,
        )
        entries.append(json.dumps(result.to_entry(), sort_keys=True).encode())
    assert entries[0] == entries[1]


def test_tune_seed_is_recorded_in_the_db(tmp_path):
    db = TuningDatabase()
    result = tune(
        get_stencil("jacobi_1d"),
        strategy="random",
        budget=4,
        seed=23,
        db=db,
    )
    entry = db.get(result.digest, result.device, "random", "model")
    assert entry is not None
    assert entry["seed"] == 23
    assert entry["budget"] == 4

"""Search strategies: budgets, determinism, hill-climbing behaviour."""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from repro import obs
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


def _cache_io(spans, stage):
    """``(span name, outcome)`` counts of the disk-cache spans of one stage."""
    return Counter(
        (span.name, span.attributes.get("outcome"))
        for span in spans
        if span.name in ("cache.get", "cache.put")
        and span.attributes.get("stage") == stage
    )


def test_warm_rerun_of_a_sweep_scores_nothing(tmp_path):
    """A re-run replays every trial from its cache entry and scores none."""
    program = get_stencil("jacobi_2d")
    root = tmp_path / "cache"
    sweep = dict(strategy="random", budget=6, seed=0)
    first = tune(program, **sweep, disk_cache=DiskCache(root))
    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        second = tune(program, **sweep, disk_cache=DiskCache(root))
    spans = recorder.drain()

    assert not [span for span in spans if span.name == "tune.trial"]
    evaluations = second.to_entry()["evaluations"]
    # Every trial is a hit: no miss, no store.
    assert _cache_io(spans, "tuning-trial") == {("cache.get", "hit"): evaluations}
    assert second.to_entry() == first.to_entry()


@pytest.mark.parametrize("strategy", ["grid", "random", "hillclimb"])
def test_tune_entry_is_cache_invariant(strategy, tmp_path):
    """No cache, a cold cache and a warm cache give the same entry."""
    program = get_stencil("jacobi_2d")
    sweep = dict(strategy=strategy, budget=6, seed=0)
    uncached = tune(program, **sweep).to_entry()
    root = tmp_path / "cache"
    assert tune(program, **sweep, disk_cache=DiskCache(root)).to_entry() == uncached
    assert tune(program, **sweep, disk_cache=DiskCache(root)).to_entry() == uncached


def test_scored_candidates_leave_only_their_trial_entries(tmp_path):
    """The scoring session has no disk cache: no per-candidate pass artefacts."""
    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        result = tune(
            get_stencil("jacobi_2d"),
            strategy="random",
            budget=6,
            seed=0,
            disk_cache=DiskCache(tmp_path / "cache"),
        )
    spans = recorder.drain()
    stages = {
        span.attributes.get("stage")
        for span in spans
        if span.name in ("cache.get", "cache.put")
    }
    # The prefix session stores canonicalize and the model's tiling plan.
    assert stages == {"canonicalize", "tiling", "tuning-trial"}
    assert _cache_io(spans, "canonicalize")[("cache.put", None)] == 1
    assert _cache_io(spans, "tiling")[("cache.put", None)] == 1
    assert (
        _cache_io(spans, "tuning-trial")[("cache.put", None)]
        == result.to_entry()["evaluations"]
    )


def test_traced_sweep_records_one_trial_span_per_scored_candidate():
    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        result = tune(get_stencil("jacobi_2d"), strategy="random", budget=6, seed=0)
    spans = recorder.drain()
    ids = {span.span_id for span in spans}
    assert len(ids) == len(spans)
    assert all(span.parent_id is None or span.parent_id in ids for span in spans)
    assert {span.pid for span in spans} == {os.getpid()}

    (search,) = [span for span in spans if span.name == "tune.search"]
    trials = [span for span in spans if span.name == "tune.trial"]
    scored = [result.baseline, *result.trials]
    assert sorted(span.attributes["candidate"] for span in trials) == sorted(
        str(trial.candidate) for trial in scored
    )
    # The model baseline is scored before the search, every other candidate in it.
    within = [span for span in trials if span.parent_id == search.span_id]
    assert len(within) == len(result.trials)


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


def test_tune_records_applicable_entry_end_to_end(tmp_path):
    """tune() -> database -> ``best_for`` -> a run at the entry's sizes: the
    lookup a library caller makes, under the run's digest and device."""
    from repro.api import Session, TileSizes
    from repro.api.session import program_digest

    program = get_stencil("jacobi_2d", sizes=(64, 64), steps=8)
    db = TuningDatabase()
    result = tune(
        program,
        strategy="grid",
        budget=5,
        seed=0,
        disk_cache=DiskCache(tmp_path / "cache"),
        db=db,
    )
    entry = db.best_for(program_digest(program), GTX470.name)
    assert entry is not None
    sizes = TileSizes(entry["best"]["height"], tuple(entry["best"]["widths"]))
    assert sizes == result.best.candidate
    run = Session().run(program, tile_sizes=sizes, stop_after="tiling")
    assert run.artifact("tiling").sizes == result.best.candidate

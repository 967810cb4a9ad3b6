"""The parallel execution engine: determinism, ordering, cache sharing."""

from __future__ import annotations

import json

import pytest

from repro.bench import BenchOptions, run_bench
from repro.cache import DiskCache
from repro.engine import map_ordered, resolve_jobs


def _square(x: int) -> int:
    return x * x


def _flaky(x: int) -> int:
    if x == 3:
        raise RuntimeError("boom")
    return x


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1


def test_map_ordered_serial_matches_comprehension():
    items = list(range(10))
    assert map_ordered(_square, items, jobs=1) == [x * x for x in items]


def test_map_ordered_parallel_preserves_input_order():
    items = list(range(20))
    assert map_ordered(_square, items, jobs=2) == [x * x for x in items]


def test_map_ordered_propagates_worker_exceptions():
    with pytest.raises(RuntimeError, match="boom"):
        map_ordered(_flaky, [1, 2, 3, 4], jobs=2)
    with pytest.raises(RuntimeError, match="boom"):
        map_ordered(_flaky, [1, 2, 3, 4], jobs=1)


def _deterministic_view(report: dict) -> str:
    """A report with every measured (non-deterministic) field removed."""
    clone = json.loads(json.dumps(report))
    clone.pop("created", None)
    clone.pop("environment", None)
    clone.pop("disk_cache", None)  # depends on the cache's prior state
    for suite in clone["suites"].values():
        for entry in suite["stencils"].values():
            entry.pop("wall_s", None)
            entry.pop("stages", None)
            entry.pop("timings", None)
    return json.dumps(clone, sort_keys=True)


@pytest.mark.parametrize("suite", ["compile", "simulate"])
def test_bench_jobs_produce_identical_reports(tmp_path, suite):
    """--jobs N and --jobs 1 agree on everything except wall-clock noise."""
    cache = DiskCache(tmp_path / "hexcc")
    stencils = ("jacobi_1d", "jacobi_2d")
    serial = run_bench(
        BenchOptions(
            suites=(suite,), repeats=1, stencils=stencils, jobs=1, disk_cache=cache
        )
    )
    parallel = run_bench(
        BenchOptions(
            suites=(suite,), repeats=1, stencils=stencils, jobs=2, disk_cache=cache
        )
    )
    assert _deterministic_view(serial) == _deterministic_view(parallel)
    # Deterministic ordering: stencils appear in request order both times.
    assert list(serial["suites"][suite]["stencils"]) == list(stencils)
    assert list(parallel["suites"][suite]["stencils"]) == list(stencils)


def test_bench_warm_cache_rerun_skips_recompilation(tmp_path):
    cache_root = tmp_path / "hexcc"
    options = dict(
        suites=("compile",), repeats=1, stencils=("jacobi_1d",)
    )
    cold = run_bench(BenchOptions(**options, disk_cache=DiskCache(cache_root)))
    assert cold["disk_cache"]["stores"] >= 1
    warm = run_bench(BenchOptions(**options, disk_cache=DiskCache(cache_root)))
    assert warm["disk_cache"]["misses"] == 0
    assert warm["disk_cache"]["stores"] == 0
    assert warm["disk_cache"]["hits"] >= 1
    assert _deterministic_view(cold) == _deterministic_view(warm)


def test_workers_share_the_disk_cache(tmp_path):
    """A parallel bench run leaves entries any later process can reuse."""
    cache_root = tmp_path / "hexcc"
    run_bench(
        BenchOptions(
            suites=("compile",),
            repeats=1,
            stencils=("jacobi_1d", "jacobi_2d"),
            jobs=2,
            disk_cache=DiskCache(cache_root),
        )
    )
    reader = DiskCache(cache_root)
    assert reader.stats().entries >= 2
    from repro.api import Session
    from repro.stencils import get_stencil

    Session(disk_cache=reader).run(get_stencil("jacobi_1d"))
    # Artifacts are cached at pass granularity: one compile fetches the
    # canonicalize, tiling, memory and codegen artifacts.
    assert reader.hits == 4 and reader.misses == 0


def test_experiment_sweeps_are_jobs_invariant(tmp_path):
    from repro.experiments import run_ablation, run_counter_ablation

    cache = DiskCache(tmp_path / "hexcc")
    serial = run_ablation(jobs=1, disk_cache=cache)
    parallel = run_ablation(jobs=2, disk_cache=cache)
    assert serial == parallel
    assert run_counter_ablation(jobs=1, disk_cache=cache) == run_counter_ablation(
        jobs=2, disk_cache=cache
    )

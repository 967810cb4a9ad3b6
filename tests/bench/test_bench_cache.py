"""The bench runner and the persistent artefact cache."""

import json

import pytest

from repro.api import Session
from repro.bench import BenchOptions, run_bench
from repro.cache import DiskCache
from repro.stencils import get_stencil


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


def test_bench_warm_cache_rerun_skips_recompilation(tmp_path):
    cache_root = tmp_path / "hexcc"
    options = dict(suites=("compile",), repeats=1, stencils=("jacobi_1d",))
    cold = run_bench(BenchOptions(**options, disk_cache=DiskCache(cache_root)))
    assert cold["disk_cache"]["stores"] >= 1
    warm = run_bench(BenchOptions(**options, disk_cache=DiskCache(cache_root)))
    assert warm["disk_cache"]["misses"] == 0
    assert warm["disk_cache"]["stores"] == 0
    assert warm["disk_cache"]["hits"] >= 1
    assert _deterministic_view(cold) == _deterministic_view(warm)


def test_bench_run_leaves_entries_a_later_session_reuses(tmp_path):
    cache_root = tmp_path / "hexcc"
    report = run_bench(
        BenchOptions(
            suites=("compile",),
            repeats=1,
            stencils=("jacobi_1d", "jacobi_2d"),
            disk_cache=DiskCache(cache_root),
        )
    )
    # The report's totals are the ones the run persisted for `hexcc cache stats`.
    totals = DiskCache(cache_root).stats()
    assert report["disk_cache"]["stores"] == totals.stores >= 2
    assert report["disk_cache"]["hits"] == totals.hits
    reader = DiskCache(cache_root)
    Session(disk_cache=reader).run(get_stencil("jacobi_1d"))
    # Artifacts are cached at pass granularity: one compile fetches the
    # canonicalize, tiling, memory and codegen artifacts.
    assert reader.hits == 4 and reader.misses == 0


@pytest.mark.parametrize("suite", ["compile", "simulate"])
def test_bench_reports_are_deterministic(tmp_path, suite):
    """Two runs agree on everything but wall-clock noise, with or without a cache."""
    stencils = ("jacobi_2d", "jacobi_1d")

    def report(cache):
        options = BenchOptions(
            suites=(suite,), repeats=1, stencils=stencils, disk_cache=cache
        )
        return run_bench(options)

    pairs = [
        (report(DiskCache(tmp_path / "a")), report(DiskCache(tmp_path / "b"))),
        (report(None), report(None)),
    ]
    for first, second in pairs:
        assert _deterministic_view(first) == _deterministic_view(second)
        # Stencils appear in request order, not sorted.
        assert list(first["suites"][suite]["stencils"]) == list(stencils)

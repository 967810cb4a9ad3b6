"""Pass-granular caching: key structure, partial reuse, strategy isolation."""

from __future__ import annotations

import pytest

from repro.api import OptimizationConfig, Session, TileSizes
from repro.cache import DiskCache, stage_key
from repro.stencils import get_stencil
from repro.tiling.validate import validate_hybrid_tiling


@pytest.fixture
def program():
    return get_stencil("jacobi_2d", sizes=(20, 18), steps=10)


SIZES = TileSizes.of(2, 3, 6)


# -- the key function -----------------------------------------------------------------


def test_stage_key_depends_on_strategy_name():
    """Regression: a classical plan must never be served for a hybrid request."""
    base = stage_key("tiling", 1, "hybrid", ["tile-sizes=x"], parent="p")
    assert stage_key("tiling", 1, "classical", ["tile-sizes=x"], parent="p") != base
    assert stage_key("tiling", 1, "diamond", ["tile-sizes=x"], parent="p") != base


def test_stage_key_depends_on_stage_schema_version():
    base = stage_key("tiling", 1, "hybrid", ["tile-sizes=x"], parent="p")
    assert stage_key("tiling", 2, "hybrid", ["tile-sizes=x"], parent="p") != base


def test_stage_key_depends_on_stage_name_parts_and_parent():
    base = stage_key("tiling", 1, "hybrid", ["a=1"], parent="p")
    assert stage_key("memory", 1, "hybrid", ["a=1"], parent="p") != base
    assert stage_key("tiling", 1, "hybrid", ["a=2"], parent="p") != base
    assert stage_key("tiling", 1, "hybrid", ["a=1"], parent="q") != base
    assert stage_key("tiling", 1, "hybrid", ["a=1"], parent=None) != base


# -- cross-strategy isolation (end to end) --------------------------------------------


def test_cross_strategy_requests_never_share_tiling_artifacts(program, tmp_path):
    cache_root = tmp_path / "hexcc"
    hybrid_run = Session(strategy="hybrid", disk_cache=DiskCache(cache_root)).run(
        program, tile_sizes=SIZES, stop_after="tiling"
    )
    # Same program, same sizes, fresh process-equivalent session, different
    # strategy: the tiling stage must recompute, not hit the hybrid entry.
    classical_run = Session(
        strategy="classical", disk_cache=DiskCache(cache_root)
    ).run(program, tile_sizes=SIZES, stop_after="tiling")

    events = {event.name: event for event in classical_run.events}
    # Every pass key carries the strategy name, so nothing of the hybrid run
    # is served — least of all the tiling plan.
    assert events["canonicalize"].source == "computed"
    assert events["tiling"].source == "computed"
    assert classical_run.artifact("tiling").strategy == "classical"
    assert hybrid_run.artifact("tiling").strategy == "hybrid"
    assert type(classical_run.artifact("tiling").tiling) is not type(
        hybrid_run.artifact("tiling").tiling
    )


# -- partial reuse across configurations ----------------------------------------------


def test_config_change_reuses_canonicalize_and_tiling_artifacts(program, tmp_path):
    """The whole point of pass granularity: unchanged prefixes are shared."""
    cache_root = tmp_path / "hexcc"
    Session(disk_cache=DiskCache(cache_root)).run(program, tile_sizes=SIZES)

    fresh = Session(disk_cache=DiskCache(cache_root))
    run = fresh.run(
        program, tile_sizes=SIZES, config=OptimizationConfig.config_a()
    )
    sources = {event.name: event.source for event in run.events}
    assert sources["canonicalize"] == "disk"
    assert sources["tiling"] == "disk"
    # The configuration feeds the memory/codegen stages, so those recompute.
    assert sources["memory"] == "computed"
    assert sources["codegen"] == "computed"


def test_explicit_and_model_selected_sizes_have_distinct_tiling_keys(program, tmp_path):
    cache_root = tmp_path / "hexcc"
    auto = Session(disk_cache=DiskCache(cache_root)).run(program, stop_after="tiling")
    explicit = Session(disk_cache=DiskCache(cache_root)).run(
        program, tile_sizes=SIZES, stop_after="tiling"
    )
    assert {e.name: e.source for e in explicit.events}["tiling"] == "computed"
    assert auto.artifact("tiling").sizes != explicit.artifact("tiling").sizes


def test_device_change_recomputes_only_the_analysis_stage(program, tmp_path):
    from repro.gpu.device import GTX470, NVS5200M

    cache_root = tmp_path / "hexcc"
    Session(device=GTX470, disk_cache=DiskCache(cache_root)).run(
        program, tile_sizes=SIZES, stop_after="analysis"
    )
    run = Session(device=NVS5200M, disk_cache=DiskCache(cache_root)).run(
        program, tile_sizes=SIZES, stop_after="analysis"
    )
    sources = {event.name: event.source for event in run.events}
    # Tiling used explicit sizes and memory/codegen don't read the device,
    # so everything up to codegen is shared; analysis is device-specific.
    assert sources["canonicalize"] == "disk"
    assert sources["tiling"] == "disk"
    assert sources["memory"] == "disk"
    assert sources["codegen"] == "disk"
    assert sources["analysis"] == "computed"
    assert run.artifact("analysis").device_name == NVS5200M.name


# -- robustness -----------------------------------------------------------------------


def test_corrupt_disk_artifact_falls_back_to_recompute(program, tmp_path):
    cache = DiskCache(tmp_path / "hexcc")
    Session(disk_cache=cache).run(program, tile_sizes=SIZES)
    for path in cache._entries():
        path.write_bytes(b"\x80corrupted")
    run = Session(disk_cache=DiskCache(cache.root)).run(program, tile_sizes=SIZES)
    assert all(
        event.source in ("computed",)
        for event in run.events
        if event.name != "parse"
    )
    assert validate_hybrid_tiling(run.artifact("tiling").tiling).ok
    run.simulate_and_check()


def test_in_memory_pass_lru_evicts_least_recently_used(program, monkeypatch):
    monkeypatch.setattr(Session, "CACHE_CAPACITY", 2)
    session = Session()
    session.run(program, tile_sizes=SIZES, stop_after="canonicalize")
    first = session.run(program, tile_sizes=SIZES, stop_after="tiling")
    # Capacity 2 holds {canonicalize, tiling}; a different-sized run evicts.
    session.run(program, tile_sizes=TileSizes.of(1, 3, 6), stop_after="tiling")
    again = session.run(program, tile_sizes=SIZES, stop_after="tiling")
    assert again.artifact("tiling") is not first.artifact("tiling")

"""Per-stage cache statistics and robustness of ``hexcc cache stats``."""

from __future__ import annotations

import json

import pytest

from repro.cache import DiskCache
from repro.cli import main
from repro.stencils import get_stencil


@pytest.fixture
def cache(tmp_path):
    return DiskCache(tmp_path / "hexcc")


def test_stage_counters_track_hits_misses_stores(cache):
    key = "ab" * 32
    assert cache.get(key, stage="tiling") is None
    cache.put(key, {"plan": 1}, stage="tiling")
    assert cache.get(key, stage="tiling") == {"plan": 1}
    stats = cache.stats()
    assert stats.stages["tiling"] == {"hits": 1, "misses": 1, "stores": 1}


def test_unlabelled_operations_keep_totals_only(cache):
    cache.put("cd" * 32, 1)
    cache.get("cd" * 32)
    stats = cache.stats()
    assert stats.hits == 1 and stats.stores == 1
    assert stats.stages == {}


def test_stage_counters_flush_and_merge(cache):
    cache.get("ef" * 32, stage="codegen")  # miss
    cache.flush_stats()
    assert cache.stage_counters == {}
    # A second instance merges its own counters with the persisted file.
    other = DiskCache(cache.root)
    other.get("ef" * 32, stage="codegen")  # miss again
    stats = other.stats()
    assert stats.stages["codegen"]["misses"] == 2


def test_session_attributes_stage_stats(tmp_path):
    from repro.api import Session

    cache = DiskCache(tmp_path / "hexcc")
    program = get_stencil("jacobi_2d", sizes=(48, 48), steps=6)
    # A fresh session has an empty in-memory layer: its run reads the disk.
    for _ in range(2):
        Session(disk_cache=cache).run(program, stop_after="codegen")
    stages = cache.stats().stages
    for stage in ("canonicalize", "tiling", "memory", "codegen"):
        assert stages[stage]["stores"] == 1, stage
        assert stages[stage]["hits"] == 1, stage


def test_stats_on_fresh_directory_does_not_crash(tmp_path):
    stats = DiskCache(tmp_path / "never-created").stats()
    assert stats.entries == 0 and stats.bytes == 0
    assert "entries" in stats.describe()


def test_stats_survive_corrupt_stats_json(cache):
    # A foreign/truncated stats.json (here: a JSON array) used to raise
    # AttributeError inside ``hexcc cache stats``; it must read as empty.
    cache.root.mkdir(parents=True, exist_ok=True)
    (cache.root / "stats.json").write_text("[1, 2, 3]")
    stats = cache.stats()
    assert stats.hits == 0
    (cache.root / "stats.json").write_text("{ not json")
    assert cache.stats().misses == 0


def test_cli_cache_stats_fresh_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCC_CACHE_DIR", str(tmp_path / "fresh"))
    assert main(["cache", "stats"]) == 0
    assert "entries    : 0" in capsys.readouterr().out


def test_cli_cache_stats_shows_stage_breakdown(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCC_CACHE_DIR", str(tmp_path / "cachedir"))
    assert main(["compile", "jacobi_2d"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    output = capsys.readouterr().out
    assert "per-stage" in output
    assert "tiling" in output and "codegen" in output


def test_persisted_stage_stats_format(cache):
    cache.put("ab" * 32, 1, stage="tiling")
    cache.flush_stats()
    raw = json.loads((cache.root / "stats.json").read_text())
    assert raw["stores"] == 1
    assert raw["stages"]["tiling"]["stores"] == 1

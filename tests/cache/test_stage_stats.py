"""Per-stage cache provenance and robustness of ``hexcc cache stats``."""

from __future__ import annotations

import json

from repro.cache import DiskCache
from repro.cli import main
from repro.stencils import get_stencil


def test_session_attributes_stage_stats(tmp_path):
    from repro.api import Session

    cache = DiskCache(tmp_path / "hexcc")
    program = get_stencil("jacobi_2d", sizes=(48, 48), steps=6)
    # A fresh session has an empty in-memory layer: its run reads the disk.
    runs = [
        Session(disk_cache=cache).run(program, stop_after="codegen")
        for _ in range(2)
    ]
    keyed = ("canonicalize", "tiling", "memory", "codegen")
    for run, source in zip(runs, ("computed", "disk")):
        sources = {event.name: event.source for event in run.events}
        assert [sources[stage] for stage in keyed] == [source] * 4
    assert (cache.hits, cache.misses, cache.stores) == (4, 4, 4)


def test_stats_on_fresh_directory_does_not_crash(tmp_path):
    stats = DiskCache(tmp_path / "never-created").stats()
    assert stats.entries == 0 and stats.bytes == 0
    assert "entries" in stats.describe()


def test_cli_cache_stats_fresh_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCC_CACHE_DIR", str(tmp_path / "fresh"))
    assert main(["cache", "stats"]) == 0
    assert "entries    : 0" in capsys.readouterr().out


def test_cache_directory_holds_only_entries_and_history(
    tmp_path, monkeypatch, capsys
):
    """Two compiles leave their artefacts and two history lines, nothing else."""
    root = tmp_path / "cachedir"
    monkeypatch.setenv("HEXCC_CACHE_DIR", str(root))
    for _ in range(2):
        assert main(["compile", "jacobi_1d", "--h", "1", "--widths", "4"]) == 0
    files = sorted(
        path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()
    )
    entries = [name for name in files if name.startswith("v1/")]
    assert len(entries) == 5 and all(name.endswith(".pkl") for name in entries)
    assert files == sorted(entries + ["history/runs.jsonl"])
    history = (root / "history" / "runs.jsonl").read_text().splitlines()
    assert [json.loads(line)["kind"] for line in history] == ["compile", "compile"]
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"cache root : {root}",
        "entries    : 5",
        f"size       : {DiskCache(root).stats().bytes / 1024.0:.1f} KiB",
    ]

"""The persistent run-history store and its record builders."""

from __future__ import annotations

import json

import pytest

from repro.obs.history import (
    RunHistory,
    bench_record,
    compile_record,
    history_dir,
    history_enabled,
    tune_record,
)


@pytest.fixture
def store(tmp_path):
    return RunHistory(tmp_path / "history")


def _compile_payload(program="jacobi_2d", wall_ms=5.0, tiling_ms=2.0):
    return compile_record(
        program=program,
        digest="abc123",
        strategy="hybrid",
        device="GTX 470",
        stop="codegen",
        wall_ms=wall_ms,
        passes=[
            {"name": "parse", "wall_ms": 1.0, "source": "computed"},
            {"name": "tiling", "wall_ms": tiling_ms, "source": "computed"},
        ],
    )


def test_append_writes_one_schema_versioned_line(store):
    record = store.append("compile", _compile_payload())
    assert record is not None
    (line,) = store.path.read_text().splitlines()
    data = json.loads(line)
    assert data["schema"] == "hexcc-run"
    assert data["schema_version"] == 1
    assert data["kind"] == "compile"
    assert data["id"] == record.id and len(record.id) == 12
    assert data["program"] == "jacobi_2d"


def test_records_filter_by_kind_and_limit(store):
    store.append("compile", _compile_payload())
    store.append("bench", bench_record(suite="compile", device="GTX 470", entries=[]))
    store.append("compile", _compile_payload(wall_ms=6.0))
    assert [r.kind for r in store.records()] == ["compile", "bench", "compile"]
    assert len(store.records(kind="compile")) == 2
    assert len(store.records(limit=1)) == 1
    assert store.records(limit=1)[0].data["wall_ms"] == 6.0  # newest kept


def test_records_limit_zero_is_empty(store):
    store.append("compile", _compile_payload())
    assert store.records(limit=0) == []
    assert len(store.records(limit=5)) == 1


def test_records_skip_malformed_and_foreign_lines(store):
    store.append("compile", _compile_payload())
    with open(store.path, "a") as handle:
        handle.write("not json at all\n")
        handle.write('{"schema": "something-else", "kind": "compile"}\n')
        handle.write("\n")
    store.append("compile", _compile_payload(wall_ms=9.0))
    assert len(store.records()) == 2


def test_select_supports_last_and_id_prefixes(store):
    first = store.append("compile", _compile_payload(wall_ms=1.0))
    second = store.append("compile", _compile_payload(wall_ms=2.0))
    assert store.select("last").id == second.id
    assert store.select("last~1").id == first.id
    assert store.select(first.id[:6]).id == first.id
    with pytest.raises(LookupError):
        store.select("last~9")
    with pytest.raises(LookupError):
        store.select("zzzzzz")
    with pytest.raises(LookupError):
        store.select("last~x")


def test_select_rejects_ambiguous_prefixes(store):
    ids = set()
    # Append until two ids share a first hex digit (bounded: 17 draws max).
    for wall in range(1, 18):
        record = store.append("compile", _compile_payload(wall_ms=float(wall)))
        if record.id[0] in ids:
            with pytest.raises(LookupError, match="ambiguous"):
                store.select(record.id[0])
            return
        ids.add(record.id[0])
    raise AssertionError("unreachable: 17 hex first-digits cannot be unique")


def test_select_on_empty_store(store):
    with pytest.raises(LookupError, match="empty"):
        store.select("last")


def test_compact_keeps_the_newest_records(store):
    for wall in range(10):
        store.append("compile", _compile_payload(wall_ms=float(wall)))
    store.compact(keep=3)
    records = store.records()
    assert [r.data["wall_ms"] for r in records] == [7.0, 8.0, 9.0]
    # Compaction preserves full record documents (ids survive).
    assert all(len(r.id) == 12 for r in records)


def test_disable_env_suppresses_recording(store, monkeypatch):
    monkeypatch.setenv("HEXCC_HISTORY_DISABLE", "1")
    assert not history_enabled()
    assert store.append("compile", _compile_payload()) is None
    assert not store.path.exists()


def test_default_directory_is_under_the_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HEXCC_CACHE_DIR", str(tmp_path / "cache"))
    assert history_dir() == tmp_path / "cache" / "history"
    assert RunHistory().path == history_dir() / "runs.jsonl"


def test_describe_lines_name_the_run(store):
    compile_run = store.append("compile", _compile_payload())
    bench_run = store.append(
        "bench",
        bench_record(
            suite="compile",
            device="GTX 470",
            entries=[
                {
                    "stencil": "jacobi_1d",
                    "wall_s": {"median": 0.004},
                    "timings": {"pass.tiling": {"median": 0.002}},
                }
            ],
        ),
    )
    tune_run = store.append(
        "tune",
        tune_record(
            program="heat_2d", strategy_space="random/model", trials=4,
            best_score=1.5, best_config={"height": 2},
        ),
    )
    assert "jacobi_2d" in compile_run.describe()
    assert "cache 0/2" in compile_run.describe()
    assert "suite=compile" in bench_run.describe()
    assert "stencils=1" in bench_run.describe()
    assert "trials=4" in tune_run.describe()
    # bench entries carry medians in ms, not raw runs
    (entry,) = bench_run.data["entries"]
    assert entry["wall_ms"] == 4.0
    assert entry["timings_ms"]["pass.tiling"] == 2.0


def test_session_runs_are_recorded(small_jacobi_2d):
    from repro.api import Session

    Session().run(small_jacobi_2d, stop_after="tiling")
    (record,) = RunHistory().records(kind="compile")
    assert record.data["program"] == "jacobi_2d"
    assert record.data["stop"] == "tiling"
    assert record.data["digest"]
    names = [p["name"] for p in record.data["passes"]]
    assert names == ["parse", "canonicalize", "tiling"]
    assert all(p["wall_ms"] >= 0.0 for p in record.data["passes"])
    assert all(
        p["source"] in ("computed", "memory", "disk") for p in record.data["passes"]
    )


def test_tune_runs_are_recorded(monkeypatch, tmp_path):
    monkeypatch.setenv("HEXCC_TUNING_DB", str(tmp_path / "tuning.json"))
    from repro.stencils import get_stencil
    from repro.tuning import tune

    tune(get_stencil("jacobi_1d", sizes=(64,), steps=8), budget=3, seed=1)
    (record,) = RunHistory().records(kind="tune")
    assert record.data["program"] == "jacobi_1d"
    assert record.data["trials"] >= 3
    assert record.data["best_config"]["height"] >= 1

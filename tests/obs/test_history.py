"""The persistent run-history store and its record builders."""

from __future__ import annotations

import json

import pytest

from repro.obs.history import (
    RunHistory,
    bench_record,
    compile_record,
    history_dir,
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


# -- who writes history: hexcc commands, never the library ---------------------


COMPILE_FIELDS = {
    "schema", "schema_version", "kind", "ts_ns", "id",
    "program", "digest", "strategy", "device", "stop", "wall_ms", "passes",
}


def _main(argv):
    from repro.cli import main

    return main(argv)


def test_a_compile_command_appends_one_compile_record(capsys):
    assert _main(["compile", "jacobi_2d"]) == 0
    (record,) = RunHistory().records()
    assert record.kind == "compile"
    assert set(record.data) == COMPILE_FIELDS
    assert record.data["program"] == "jacobi_2d"
    assert record.data["strategy"] == "hybrid"
    assert record.data["device"] == "GTX 470"
    assert record.data["stop"] == "analysis"
    assert len(record.data["digest"]) == 64
    passes = record.data["passes"]
    assert [p["name"] for p in passes] == [
        "parse", "canonicalize", "tiling", "memory", "codegen", "analysis",
    ]
    assert all(set(p) == {"name", "wall_ms", "source", "counters"} for p in passes)
    # The record's wall time is the whole run: at least the sum of its passes.
    assert record.data["wall_ms"] >= sum(p["wall_ms"] for p in passes) - 1e-3


def test_verify_every_strategy_appends_three_compile_records(capsys):
    assert _main(["verify", "heat_2d", "--strategy", "all"]) == 0
    records = RunHistory().records()
    assert [(r.kind, r.data["strategy"]) for r in records] == [
        ("compile", "classical"), ("compile", "diamond"), ("compile", "hybrid"),
    ]
    assert [r.data["stop"] for r in records] == ["tiling", "tiling", "verify"]


def test_session_runs_are_recorded(capsys):
    """One pipeline prefix through ``hexcc inspect``, recorded pass by pass."""
    assert _main(["inspect", "jacobi_2d", "--stop-after", "tiling"]) == 0
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


def test_tune_runs_are_recorded(tmp_path, capsys):
    """One ``tune`` line, and none for the candidates the sweep scored."""
    db = str(tmp_path / "tuning.json")
    assert _main(["tune", "jacobi_1d", "--budget", "4", "--tuning-db", db]) == 0
    (line,) = RunHistory().path.read_text().splitlines()
    assert json.loads(line)["kind"] == "tune"
    (record,) = RunHistory().records(kind="tune")
    assert record.data["program"] == "jacobi_1d"
    assert record.data["trials"] >= 4
    assert record.data["best_config"]["height"] >= 1


def test_library_runs_write_no_history(small_jacobi_2d, monkeypatch, tmp_path):
    from repro.api import Session
    from repro.bench import BenchOptions, run_bench
    from repro.stencils import get_stencil
    from repro.tuning import tune

    monkeypatch.setenv("HEXCC_TUNING_DB", str(tmp_path / "tuning.json"))
    Session().run(small_jacobi_2d, stop_after="analysis")
    tune(get_stencil("jacobi_1d", sizes=(64,), steps=8), budget=3, seed=1)
    run_bench(
        BenchOptions(suites=("compile",), quick=True, repeats=1, stencils=("jacobi_1d",))
    )
    assert not RunHistory().path.exists()


# -- a corrupt history file never ends in a traceback ---------------------------

#: One line each, whose fields lack the types the writers give them.
BAD_LINES = {
    "ts_ns-null": {"kind": "compile", "id": "abc", "ts_ns": None},
    "ts_ns-out-of-range": {"kind": "compile", "id": "abc", "ts_ns": 10**30},
    "id-number": {"kind": "compile", "id": 7, "ts_ns": 1},
    "kind-list": {"kind": ["compile"], "id": "abc", "ts_ns": 1},
    "wall_ms-null": {"kind": "compile", "id": "abc", "ts_ns": 1, "wall_ms": None},
    "passes-number": {"kind": "compile", "id": "abc", "ts_ns": 1, "passes": 5},
    "pass-number": {"kind": "compile", "id": "abc", "ts_ns": 1, "passes": [5]},
    "pass-wall_ms-text": {
        "kind": "compile", "id": "abc", "ts_ns": 1,
        "passes": [{"name": "tiling", "wall_ms": "slow", "source": "computed"}],
    },
    "pass-source-list": {
        "kind": "compile", "id": "abc", "ts_ns": 1,
        "passes": [{"name": "tiling", "wall_ms": 1.0, "source": ["disk"]}],
    },
    "entries-number": {"kind": "bench", "id": "abc", "ts_ns": 1, "entries": 5},
    "best_score-text": {"kind": "tune", "id": "abc", "ts_ns": 1, "best_score": "x"},
}


@pytest.mark.parametrize("shape", sorted(BAD_LINES))
def test_perf_skips_lines_of_the_wrong_shape(shape, capsys):
    good = RunHistory().append("compile", _compile_payload())
    with open(RunHistory().path, "a") as handle:
        handle.write(json.dumps({"schema": "hexcc-run", **BAD_LINES[shape]}) + "\n")
    assert [r.id for r in RunHistory().records()] == [good.id]
    capsys.readouterr()

    assert _main(["perf", "history"]) == 0
    out, err = capsys.readouterr()
    assert good.id in out and "Traceback" not in out + err
    assert _main(["perf", "history", "--json"]) == 0
    out, err = capsys.readouterr()
    assert [r["id"] for r in json.loads(out)] == [good.id]
    # One good compile record: there is no second one to compare with.
    assert _main(["perf", "diff", "last~1", "last"]) == 2
    out, err = capsys.readouterr()
    assert "out of range" in err and "Traceback" not in out + err

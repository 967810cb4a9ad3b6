"""The tuning database: round trips, robustness, resolution, preference."""

from __future__ import annotations

import json

import pytest

from repro.tuning import TuningDatabase, baseline_db_path, resolve_db_path
from repro.tuning.db import DB_KIND, SCHEMA_VERSION, TUNING_DB_ENV, entry_key


def _entry(program="heat_3d", device="GTX 470", strategy="random",
           objective="model", score=0.5, digest="d" * 64):
    return {
        "program": program,
        "sizes": [384, 384, 384],
        "steps": 128,
        "digest": digest,
        "device": device,
        "strategy": strategy,
        "objective": objective,
        "seed": 0,
        "budget": 8,
        "evaluations": 9,
        "failures": 0,
        "best": {"height": 2, "widths": [7, 10, 32], "score": score},
        "baseline": {"height": 2, "widths": [3, 4, 128], "score": score * 2},
    }


def test_round_trip(tmp_path):
    db = TuningDatabase()
    key = db.record(_entry())
    path = db.save(tmp_path / "tuning.json")
    loaded = TuningDatabase.load(path)
    assert len(loaded) == 1
    assert loaded.entries[key]["program"] == "heat_3d"


def test_document_envelope(tmp_path):
    db = TuningDatabase()
    db.record(_entry())
    raw = json.loads((db.save(tmp_path / "t.json")).read_text())
    assert raw["kind"] == DB_KIND
    assert raw["schema_version"] == SCHEMA_VERSION


def test_missing_file_reads_as_empty(tmp_path):
    assert len(TuningDatabase.load(tmp_path / "nope.json")) == 0


def test_corrupt_file_reads_as_empty(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert len(TuningDatabase.load(path)) == 0


def test_foreign_document_reads_as_empty(tmp_path):
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps({"kind": "something-else", "entries": {}}))
    assert len(TuningDatabase.load(path)) == 0


def test_stale_schema_reads_as_empty(tmp_path):
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(
        {"kind": DB_KIND, "schema_version": SCHEMA_VERSION + 1, "entries": {}}
    ))
    assert len(TuningDatabase.load(path)) == 0


def test_record_requires_key_fields():
    db = TuningDatabase()
    entry = _entry()
    del entry["objective"]
    with pytest.raises(ValueError, match="objective"):
        db.record(entry)


def test_entries_key_on_strategy_and_objective():
    db = TuningDatabase()
    db.record(_entry(strategy="random", objective="simulate", score=0.1))
    db.record(_entry(strategy="random", objective="model", score=0.2))
    db.record(_entry(strategy="grid", objective="model", score=0.3))
    assert len(db) == 3
    found = db.get("d" * 64, "GTX 470", "random", "model")
    assert found is not None and found["best"]["score"] == 0.2


@pytest.mark.parametrize("objective", ["simulate", "counters"])
def test_best_for_never_applies_other_objectives(objective):
    # A user database may still hold entries of a retired objective: they
    # load, but --tuned applies none of them.
    db = TuningDatabase()
    db.record(_entry(strategy="random", objective=objective, score=0.1))
    assert len(db) == 1
    assert db.best_for("d" * 64, "GTX 470") is None


def test_best_for_ignores_a_lower_scored_other_objective():
    db = TuningDatabase()
    db.record(_entry(strategy="random", objective="simulate", score=0.001))
    db.record(_entry(strategy="grid", objective="model", score=0.9))
    assert db.best_for("d" * 64, "GTX 470")["objective"] == "model"


def test_best_for_picks_lowest_score_within_objective():
    db = TuningDatabase()
    db.record(_entry(strategy="grid", objective="model", score=0.4))
    db.record(_entry(strategy="random", objective="model", score=0.2))
    assert db.best_for("d" * 64, "GTX 470")["strategy"] == "random"


def test_best_for_unknown_program():
    assert TuningDatabase().best_for("e" * 64, "GTX 470") is None


def test_save_is_deterministic(tmp_path):
    db = TuningDatabase()
    db.record(_entry(strategy="b"))
    db.record(_entry(strategy="a"))
    first = db.save(tmp_path / "one.json").read_bytes()
    second = db.save(tmp_path / "two.json").read_bytes()
    assert first == second


def test_resolution_chain(tmp_path, monkeypatch):
    explicit = tmp_path / "explicit.json"
    assert resolve_db_path(explicit) == explicit
    monkeypatch.setenv(TUNING_DB_ENV, str(tmp_path / "env.json"))
    assert resolve_db_path() == tmp_path / "env.json"
    monkeypatch.delenv(TUNING_DB_ENV)
    monkeypatch.setenv("HEXCC_CACHE_DIR", str(tmp_path / "cache"))
    # No user database yet: fall through to the committed baseline.
    assert resolve_db_path() == baseline_db_path()
    user_db = tmp_path / "cache" / "tuning.json"
    user_db.parent.mkdir(parents=True)
    user_db.write_text("{}")
    assert resolve_db_path() == user_db


def test_committed_baseline_is_valid_and_covers_the_library(tmp_path):
    from repro.stencils import get_stencil, list_stencils
    from repro.tuning import tune

    db = TuningDatabase.load(baseline_db_path())
    assert len(db) > 0
    programs = {entry["program"] for entry in db}
    assert programs.issuperset(set(list_stencils()))
    for key, entry in db.entries.items():
        assert key == entry_key(
            entry["digest"], entry["device"], entry["strategy"], entry["objective"]
        )
        assert entry["best"]["score"] <= entry["baseline"]["score"]
    # The score is deterministic, so any machine regenerates the committed
    # file byte for byte (README: "Regenerating the baseline database").  A
    # change that moves a model score fails here.
    regenerated = TuningDatabase()
    for name in list_stencils():
        tune(get_stencil(name), strategy="random", budget=32, seed=0,
             db=regenerated)
    saved = regenerated.save(tmp_path / "regenerated.json")
    assert saved.read_bytes() == baseline_db_path().read_bytes()


def test_malformed_entries_are_dropped_at_load(tmp_path):
    # A hand-edited entry missing "best" (or with junk in it) must never
    # crash --tuned resolution later; it is dropped when the file is read.
    db = TuningDatabase()
    db.record(_entry())
    path = db.save(tmp_path / "edited.json")
    raw = json.loads(path.read_text())
    raw["entries"]["x/GTX 470/random/model"] = {"objective": "model"}
    raw["entries"]["y/GTX 470/random/model"] = {
        **_entry(digest="e" * 64),
        "best": {"height": "tall"},
    }
    path.write_text(json.dumps(raw))
    loaded = TuningDatabase.load(path)
    assert len(loaded) == 1
    assert loaded.best_for("e" * 64, "GTX 470") is None


@pytest.mark.parametrize("threads", [None, [1, 64]])
def test_entries_with_a_thread_shape_are_never_applied(tmp_path, threads):
    # A best scored for a thread-block shape describes a launch the pipeline
    # no longer emits: the entry is dropped at load.  A null shape, as
    # written before the shape axis was removed, still applies.
    db = TuningDatabase()
    entry = _entry()
    entry["best"] = {**entry["best"], "threads": threads}
    db.record(entry)
    loaded = TuningDatabase.load(db.save(tmp_path / "shaped.json"))
    applied = loaded.best_for("d" * 64, "GTX 470")
    assert (applied is None) == (threads is not None)

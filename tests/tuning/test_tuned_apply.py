"""Tuned-config application: Session.run(tuned=True), cache keys."""

from __future__ import annotations

from repro.api import Session
from repro.api.passes import TilingPass
from repro.api.session import CompilationRequest, program_digest
from repro.api.config import OptimizationConfig
from repro.gpu.device import GTX470
from repro.stencils import get_stencil
from repro.tiling.hybrid import TileSizes
from repro.tuning import TuningDatabase, tune


def _db_for(program, height=1, widths=(3, 32), score=0.25):
    db = TuningDatabase()
    db.record(
        {
            "program": program.name,
            "sizes": list(program.sizes),
            "steps": program.time_steps,
            "digest": program_digest(program),
            "device": GTX470.name,
            "strategy": "random",
            "objective": "model",
            "seed": 0,
            "budget": 8,
            "evaluations": 9,
            "failures": 0,
            "best": {"height": height, "widths": list(widths), "score": score},
            "baseline": {"height": 2, "widths": [4, 128], "score": score * 2},
        }
    )
    return db


def test_session_applies_tuned_sizes():
    program = get_stencil("jacobi_2d", sizes=(64, 64), steps=8)
    session = Session(tuning_db=_db_for(program))
    run = session.run(program, stop_after="tiling", tuned=True)
    assert run.request.tile_sizes == TileSizes.of(1, 3, 32)
    assert run.tuned_entry is not None
    assert run.tuned_entry["best"]["score"] == 0.25


def test_explicit_sizes_beat_the_database():
    program = get_stencil("jacobi_2d", sizes=(64, 64), steps=8)
    session = Session(tuning_db=_db_for(program))
    run = session.run(
        program, tile_sizes=TileSizes.of(2, 4, 32), stop_after="tiling", tuned=True
    )
    assert run.request.tile_sizes == TileSizes.of(2, 4, 32)
    assert run.tuned_entry is None


def test_missing_entry_falls_back_to_the_model():
    program = get_stencil("jacobi_2d", sizes=(64, 64), steps=8)
    session = Session(tuning_db=TuningDatabase())
    run = session.run(program, stop_after="tiling", tuned=True)
    assert run.tuned_entry is None
    assert run.artifact("tiling").tile_cost is not None  # model selection ran


def test_tuned_run_does_not_alias_untuned_in_memory():
    program = get_stencil("jacobi_2d", sizes=(64, 64), steps=8)
    session = Session(tuning_db=_db_for(program))
    tuned = session.run(program, tuned=True).artifact("tiling")
    untuned = session.run(program).artifact("tiling")
    assert tuned is not untuned
    assert tuned.tiling.sizes == TileSizes.of(1, 3, 32)
    assert untuned.tiling.sizes != tuned.tiling.sizes
    # In-memory pass-cache hit on repeat, per flag.
    assert session.run(program, tuned=True).artifact("tiling") is tuned
    assert session.run(program).artifact("tiling") is untuned


def test_tuned_tiling_key_never_aliases_model_selected():
    """Satellite: tuned entries must not alias model-selected cache entries.

    Even when the tuned sizes happen to EQUAL the model selection, the tuned
    run keys its tiling stage by the explicit sizes while the model run keys
    it as ``tile-sizes=auto``: the keys must differ.
    """
    program = get_stencil("jacobi_2d", sizes=(64, 64), steps=8)
    session = Session()
    model_run = session.run(program, stop_after="tiling")
    model_sizes = model_run.artifact("tiling").sizes
    db = _db_for(program, height=model_sizes.height, widths=model_sizes.widths)

    digest = program_digest(program)
    config = OptimizationConfig.default()
    tiling_pass = TilingPass()

    def request(sizes):
        return CompilationRequest(
            program=program, tile_sizes=sizes, config=config, strategy="hybrid",
            device=GTX470,
        )

    auto_key = tiling_pass.key(request(None), {}, "parentkey", digest)
    tuned_session = Session(tuning_db=db)
    tuned_run = tuned_session.run(program, stop_after="tiling", tuned=True)
    assert tuned_run.request.tile_sizes == model_sizes  # same concrete sizes
    tuned_key = tiling_pass.key(
        request(tuned_run.request.tile_sizes), {}, "parentkey", digest
    )
    assert auto_key != tuned_key


def test_tuned_and_model_runs_share_canonicalize(tmp_path):
    from repro.cache import DiskCache

    program = get_stencil("jacobi_2d", sizes=(64, 64), steps=8)
    cache = DiskCache(tmp_path / "cache")
    db = _db_for(program)
    Session(disk_cache=cache, tuning_db=db).run(program, stop_after="codegen")
    # A fresh session's run goes through the disk layer.
    run = Session(disk_cache=cache, tuning_db=db).run(
        program, stop_after="codegen", tuned=True
    )
    sources = {event.name: event.source for event in run.events}
    assert sources["canonicalize"] == "disk"  # prefix shared with model run
    assert sources["tiling"] == "computed"    # tuned sizes: distinct key


def test_resolve_tuned_reports_the_applicable_entry():
    program = get_stencil("jacobi_2d", sizes=(64, 64), steps=8)
    session = Session(tuning_db=_db_for(program))
    entry = session.resolve_tuned(program)
    assert entry is not None
    assert entry["best"]["height"] == 1
    # A different problem size has a different content digest: no entry.
    other = get_stencil("jacobi_2d", sizes=(48, 48), steps=8)
    assert session.resolve_tuned(other) is None


def test_tune_records_applicable_entry_end_to_end(tmp_path):
    """tune() -> db -> Session(tuned=True) round trip."""
    from repro.cache import DiskCache

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
    session = Session(tuning_db=db)
    run = session.run(program, stop_after="tiling", tuned=True)
    assert run.tuned_entry is not None
    assert run.request.tile_sizes == result.best.candidate

"""The staged pipeline: stop_after, typed artifacts, injection, events."""

from __future__ import annotations

import pytest

from repro.api import (
    STAGES,
    AnalysisBundle,
    CanonicalIR,
    GeneratedCode,
    MemoryPlan,
    ParsedProgram,
    PipelineError,
    Session,
    StrategyError,
    TileSizes,
    TilingPlan,
    VerificationReport,
)
from repro.stencils import get_stencil
from repro.tiling.hybrid import HybridTiling


@pytest.fixture
def program():
    return get_stencil("jacobi_2d", sizes=(20, 18), steps=10)


SIZES = TileSizes.of(2, 3, 6)


def test_full_run_produces_every_typed_artifact(program):
    run = Session().run(program, tile_sizes=SIZES, stop_after="verify")
    assert run.stages_run == STAGES
    assert isinstance(run.artifact("parse"), ParsedProgram)
    assert isinstance(run.artifact("canonicalize"), CanonicalIR)
    assert isinstance(run.artifact("tiling"), TilingPlan)
    assert isinstance(run.artifact("memory"), MemoryPlan)
    assert isinstance(run.artifact("codegen"), GeneratedCode)
    assert isinstance(run.artifact("analysis"), AnalysisBundle)
    assert isinstance(run.artifact("verify"), VerificationReport)
    assert run.artifact("analysis").report.gflops > 0
    assert run.artifact("verify").ok


def test_artifacts_are_frozen(program):
    from repro._record import FrozenInstanceError

    run = Session().run(program, tile_sizes=SIZES, stop_after="tiling")
    plan = run.artifact("tiling")
    with pytest.raises(FrozenInstanceError):
        plan.strategy = "other"


def test_stop_after_runs_exactly_that_prefix(program):
    run = Session().run(program, tile_sizes=SIZES, stop_after="tiling")
    assert run.stages_run == ("parse", "canonicalize", "tiling")
    with pytest.raises(PipelineError, match="did not run"):
        run.artifact("memory")
    with pytest.raises(ValueError, match="unknown pipeline stage"):
        run.artifact("bogus")


def test_unknown_stop_after_rejected(program):
    with pytest.raises(ValueError, match="unknown pipeline stage"):
        Session().run(program, stop_after="linking")


def test_unknown_strategy_rejected_up_front(program):
    with pytest.raises(StrategyError, match="unknown tiling strategy"):
        Session(strategy="bogus")


def test_run_accepts_raw_c_source():
    source = (
        "#define T 8\n#define N 64\n"
        "for (t = 0; t < T; t++)\n"
        "  for (i = 1; i < N - 1; i++)\n"
        "    A[t][i] = 0.5f * (A[t-1][i-1] + A[t-1][i+1]);\n"
    )
    run = Session().run(source, tile_sizes=TileSizes.of(1, 4))
    parsed = run.artifact("parse")
    assert parsed.source == source
    assert "__global__" in run.artifact("codegen").cuda_source


def test_events_record_wall_time_and_counters(program):
    run = Session().run(program, tile_sizes=SIZES)
    for event in run.events:
        assert event.wall_s >= 0.0
        assert event.source == "computed"
    by_name = {event.name: event for event in run.events}
    assert by_name["tiling"].counters["tile_height"] == SIZES.height
    assert by_name["memory"].counters["shared_bytes_per_block"] > 0


def test_session_telemetry_records_passes_cache_io_and_wall(program, tmp_path):
    from repro import obs
    from repro.cache import DiskCache

    recorder = obs.TraceRecorder()
    session = Session(disk_cache=DiskCache(tmp_path / "hexcc"))
    with obs.use(recorder):
        session.run(program, tile_sizes=SIZES, stop_after="tiling")
    spans = recorder.drain()
    names = {span.name for span in spans}
    assert {"session.run", "pass.parse", "pass.canonicalize", "pass.tiling"} <= names
    assert "cache.put" in names and "cache.serialize" in names
    # Cache spans hang off the pass that triggered the I/O.
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.name == "cache.put":
            assert by_id[span.parent_id].name.startswith("pass.")
    stores = [
        span for span in spans
        if span.name == "cache.put" and span.attributes["stage"] == "canonicalize"
    ]
    assert len(stores) == 1
    (run,) = [span for span in spans if span.name == "session.run"]
    assert run.attributes["stop"] == "tiling"
    assert run.duration_ns > 0


def test_pass_events_and_spans_share_one_timing_source(program):
    """inspect/bench timings (PassEvent.wall_s) equal the span durations."""
    from repro import obs

    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        run = Session().run(program, tile_sizes=SIZES)
    durations = {
        span.name: span.duration_s
        for span in recorder.drain()
        if span.name.startswith("pass.")
    }
    for event in run.events:
        assert durations[f"pass.{event.name}"] == event.wall_s


def test_ambient_telemetry_is_used_when_none_is_passed(program):
    from repro import obs

    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        Session().run(program, tile_sizes=SIZES, stop_after="canonicalize")
    names = [span.name for span in recorder.drain()]
    assert "session.run" in names and "pass.canonicalize" in names


def test_second_run_hits_the_in_memory_pass_cache(program):
    session = Session()
    first = session.run(program, tile_sizes=SIZES)
    second = session.run(program, tile_sizes=SIZES)
    assert all(event.source == "computed" for event in first.events)
    assert [event.source for event in second.events] == [
        "computed",  # parse is never cached (wrapping is free)
        "memory", "memory", "memory", "memory",
    ]
    # Cached artifacts are the same objects.
    assert second.artifact("tiling") is first.artifact("tiling")


# -- artifact injection ---------------------------------------------------------------


def test_injected_tiling_plan_produces_byte_identical_cuda(program):
    """Re-entering the pipeline with a hand-built TilingPlan changes no byte."""
    expected = Session().run(program, tile_sizes=SIZES).artifact("codegen")

    session = Session()
    canonical_ir = session.run(program, stop_after="canonicalize").artifact(
        "canonicalize"
    )
    hand_built = TilingPlan(
        strategy="hybrid",
        sizes=SIZES,
        tiling=HybridTiling(canonical_ir.canonical, SIZES),
        supports_codegen=True,
    )
    run = session.run(program, tile_sizes=SIZES, inject={"tiling": hand_built})
    assert run.artifact("tiling") is hand_built
    assert run.artifact("codegen").cuda_source == expected.cuda_source

    by_name = {event.name: event for event in run.events}
    assert by_name["tiling"].source == "injected"
    # Downstream of an injection nothing is cached: inputs are no longer
    # derivable from the request.
    assert by_name["memory"].source == "computed"
    assert by_name["codegen"].source == "computed"


def test_injection_downstream_passes_are_not_cached(program, tmp_path):
    from repro.cache import DiskCache

    cache = DiskCache(tmp_path / "hexcc")
    session = Session(disk_cache=cache)
    canonical_ir = session.run(program, stop_after="canonicalize").artifact(
        "canonicalize"
    )
    stores_before = cache.stores
    plan = TilingPlan(
        strategy="hybrid",
        sizes=SIZES,
        tiling=HybridTiling(canonical_ir.canonical, SIZES),
        supports_codegen=True,
    )
    session.run(program, tile_sizes=SIZES, inject={"tiling": plan})
    # Only stages upstream of the injection may store (canonicalize was
    # already stored by the first run, so no new entries at all).
    assert cache.stores == stores_before


def test_injecting_an_unknown_stage_is_rejected(program):
    with pytest.raises(ValueError, match="unknown stage"):
        Session().run(program, inject={"bogus": object()})


def test_injecting_the_wrong_artifact_type_is_rejected(program):
    with pytest.raises(PipelineError, match="must be a TilingPlan"):
        Session().run(program, inject={"tiling": object()})


def test_injected_memory_plan_is_consumed(program):
    session = Session()
    base = session.run(program, tile_sizes=SIZES)
    run = session.run(
        program, tile_sizes=SIZES, inject={"memory": base.artifact("memory")}
    )
    assert run.artifact("memory") is base.artifact("memory")
    assert run.artifact("codegen").cuda_source == base.artifact("codegen").cuda_source

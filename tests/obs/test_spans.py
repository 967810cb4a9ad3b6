"""Span recording: nesting, parent links, attributes, null/ambient modes."""

from __future__ import annotations

import os
import pickle

import pytest

from repro import obs
from repro.obs.spans import NullRecorder, TraceRecorder


def test_nested_spans_record_parent_links():
    recorder = TraceRecorder()
    with recorder.span("outer"), recorder.span("inner"):
        pass
    spans = recorder.drain()
    by_name = {span.name: span for span in spans}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["outer"].parent_id is None
    assert by_name["inner"].parent_id == by_name["outer"].span_id


def test_span_ids_are_unique_and_prefixed_with_the_pid():
    recorder = TraceRecorder()
    for _ in range(5):
        with recorder.span("work"):
            pass
    # A second recorder in the same process must not mint colliding ids
    # (pool workers reuse processes and build a fresh recorder per task).
    second = TraceRecorder()
    with second.span("work"):
        pass
    spans = recorder.drain() + second.drain()
    ids = [span.span_id for span in spans]
    assert len(set(ids)) == len(ids)
    assert all(span_id.startswith(f"{os.getpid():x}-") for span_id in ids)


def test_attributes_at_open_and_via_set():
    recorder = TraceRecorder()
    with recorder.span("tiling", program="heat_3d") as handle:
        handle.set(outcome="hit")
    (span,) = recorder.drain()
    assert span.attributes == {"program": "heat_3d", "outcome": "hit"}


def test_exceptions_are_recorded_and_propagate():
    recorder = TraceRecorder()
    with pytest.raises(ValueError), recorder.span("failing"):
        raise ValueError("boom")
    (span,) = recorder.drain()
    assert span.error == "ValueError: boom"


def test_durations_are_measured_even_when_disabled():
    recorder = NullRecorder()
    with recorder.span("timed") as handle:
        pass
    assert handle.duration_s >= 0.0
    assert recorder.drain() == []


def test_timestamps_are_wall_anchored_and_ordered():
    recorder = TraceRecorder()
    with recorder.span("first"):
        pass
    with recorder.span("second"):
        pass
    first, second = recorder.drain()
    assert second.start_ns >= first.start_ns
    assert first.duration_ns >= 0


def test_ambient_telemetry_defaults_to_the_shared_noop():
    assert obs.current() is obs.NULL_TELEMETRY
    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        assert obs.current() is recorder
        with obs.span("ambient"):
            pass
    assert obs.current() is obs.NULL_TELEMETRY
    assert [span.name for span in recorder.drain()] == ["ambient"]


def test_use_nests_and_restores():
    outer, inner = obs.TraceRecorder(), obs.TraceRecorder()
    with obs.use(outer):
        with obs.use(inner):
            assert obs.current() is inner
        assert obs.current() is outer


def test_spans_are_picklable():
    recorder = TraceRecorder()
    with recorder.span("work", detail="x"):
        pass
    (span,) = recorder.drain()
    assert pickle.loads(pickle.dumps(span)) == span


def _span_tree(spans):
    """(name, parent-name) edges — the structure, stripped of ids/timing."""
    names = {span.span_id: span.name for span in spans}
    return sorted(
        (span.name, names.get(span.parent_id)) for span in spans
    )


def test_traced_compile_structure_is_deterministic():
    """The span tree of a library-stencil compile is pinned and repeatable."""
    from repro.api import Session
    from repro.stencils import get_stencil

    program = get_stencil("jacobi_2d", sizes=(20, 18), steps=10)
    trees = []
    for _ in range(2):
        recorder = obs.TraceRecorder()
        with obs.use(recorder):
            Session().run(program, stop_after="analysis")
        trees.append(_span_tree(recorder.drain()))
    assert trees[0] == trees[1]
    assert trees[0] == [
        ("pass.analysis", "session.run"),
        ("pass.canonicalize", "session.run"),
        ("pass.codegen", "session.run"),
        ("pass.memory", "session.run"),
        ("pass.parse", "session.run"),
        ("pass.tiling", "session.run"),
        ("session.run", None),
    ]


def test_tracing_does_not_change_results(small_jacobi_2d):
    from repro.api import Session

    plain = Session().run(small_jacobi_2d, stop_after="analysis")
    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        traced = Session().run(small_jacobi_2d, stop_after="analysis")
    assert recorder.drain()
    for stage in ("tiling", "codegen"):
        assert repr(traced.artifact(stage)) == repr(plain.artifact(stage))
    assert (
        traced.artifact("analysis").report.total_time_s
        == plain.artifact("analysis").report.total_time_s
    )


def test_disabled_telemetry_records_nothing(small_jacobi_2d):
    from repro.api import Session

    Session().run(small_jacobi_2d, stop_after="analysis")
    assert not obs.current().enabled
    assert obs.current().drain() == []

"""Span recording: nesting, parent links, attributes, null/ambient modes."""

from __future__ import annotations

import os
import pickle

import pytest

from repro import obs
from repro.obs.spans import NullRecorder, Span, TraceContext, TraceRecorder


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


def test_adopt_reparents_foreign_roots_only():
    recorder = TraceRecorder()
    with recorder.span("fan") as fan:
        pass
    foreign_root = Span(
        name="engine.worker", span_id="aa-1", parent_id=None,
        start_ns=0, duration_ns=10, pid=1, tid=1, attributes={},
    )
    foreign_child = Span(
        name="pass.parse", span_id="aa-2", parent_id="aa-1",
        start_ns=0, duration_ns=5, pid=1, tid=1, attributes={},
    )
    recorder.adopt([foreign_root, foreign_child], parent_id=fan.span_id)
    by_id = {span.span_id: span for span in recorder.drain()}
    assert by_id["aa-1"].parent_id == fan.span_id
    assert by_id["aa-2"].parent_id == "aa-1"  # untouched


def test_root_span_links_to_an_exported_context():
    parent = TraceRecorder()
    with parent.span("engine.map_ordered"):
        context = parent.export_context()
    assert isinstance(context, TraceContext)
    # The context is what crosses the process boundary: it must pickle.
    context = pickle.loads(pickle.dumps(context))
    worker = TraceRecorder()
    with worker.root_span("engine.worker", context=context, item=0):
        pass
    (root,) = worker.drain()
    (fan,) = parent.drain()
    assert root.parent_id == fan.span_id
    assert root.attributes == {"item": 0}


def test_spans_are_picklable():
    recorder = TraceRecorder()
    with recorder.span("work", detail="x"):
        pass
    (span,) = recorder.drain()
    assert pickle.loads(pickle.dumps(span)) == span

"""Chrome trace export and the schema validator."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.export import (
    TRACE_KIND,
    TRACE_SCHEMA_VERSION,
    chrome_trace,
    write_trace,
)
from repro.obs.spans import TraceRecorder
from repro.obs.validate import main, validate_chrome_trace


def _record_tree():
    recorder = TraceRecorder()
    with recorder.span("session.run", program="jacobi_2d"):
        with recorder.span("pass.tiling"):
            pass
        with recorder.span("cache.put", stage="tiling", blob=b"x"):
            pass
    return recorder.drain()


def test_chrome_trace_structure():
    spans = _record_tree()
    document = chrome_trace(spans)
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"] == {
        "kind": TRACE_KIND,
        "schema_version": TRACE_SCHEMA_VERSION,
        "spans": 3,
        "processes": 1,
    }
    events = document["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["args"]["name"] for e in metadata] == ["hexcc"]
    assert {e["name"] for e in complete} == {
        "session.run", "pass.tiling", "cache.put",
    }
    for event in complete:
        assert event["pid"] == os.getpid()
        assert isinstance(event["ts"], float)
        assert event["dur"] >= 0
        assert event["cat"] == event["name"].split(".", 1)[0]


def test_non_scalar_attributes_are_stringified():
    document = chrome_trace(_record_tree())
    (put,) = [e for e in document["traceEvents"] if e["name"] == "cache.put"]
    assert put["args"]["blob"] == "b'x'"
    json.dumps(document)  # the whole document must be JSON-serialisable


def test_write_trace_roundtrips_through_the_validator(tmp_path):
    path = write_trace(tmp_path / "trace.json", _record_tree())
    document = json.loads(path.read_text())
    assert validate_chrome_trace(document) == []


def test_validator_rejects_structural_problems():
    assert validate_chrome_trace({}) == ["document has no traceEvents list"]
    problems = validate_chrome_trace(
        {
            "traceEvents": [
                {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1.0,
                 "args": {"span_id": "s1", "parent_id": None}},
                {"name": "b", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1.0,
                 "args": {"span_id": "s1", "parent_id": "ghost"}},
                {"name": "c", "ph": "X", "pid": "one", "tid": 1, "ts": "soon",
                 "dur": -2.0, "args": {}},
            ]
        }
    )
    assert any("duplicate span_id 's1'" in p for p in problems)
    assert any("parent_id 'ghost' does not resolve" in p for p in problems)
    assert any("pid is not an integer" in p for p in problems)
    assert any("ts is not a number" in p for p in problems)
    assert any("negative dur" in p for p in problems)
    assert any("span_id missing" in p for p in problems)


@pytest.mark.parametrize("text", ["[]", "null", "3", '"x"'])
def test_validator_reports_a_document_that_is_not_an_object(tmp_path, capsys, text):
    path = tmp_path / "trace.json"
    path.write_text(text)
    assert main([str(path)]) == 1
    assert "INVALID document is not a JSON object" in capsys.readouterr().err


def test_validator_accepts_multi_process_traces():
    spans = _record_tree()
    foreign = [
        type(span)(
            name=span.name, span_id=f"w-{i}", parent_id=None,
            start_ns=span.start_ns, duration_ns=span.duration_ns,
            pid=span.pid + 1, tid=span.tid, attributes={},
        )
        for i, span in enumerate(spans)
    ]
    document = chrome_trace(spans + foreign)
    assert validate_chrome_trace(document) == []
    metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
    assert {e["pid"] for e in metadata} == {os.getpid(), os.getpid() + 1}
    assert {e["args"]["name"] for e in metadata} == {"hexcc"}


# -- deliberately corrupted traces ---------------------------------------------------


def _span(span_id, parent_id=None, duration_ns=10, name="pass.x"):
    from repro.obs.spans import Span

    return Span(
        name=name, span_id=span_id, parent_id=parent_id,
        start_ns=0, duration_ns=duration_ns, pid=1, tid=1, attributes={},
    )


def test_validate_spans_accepts_a_real_tree():
    from repro.obs.validate import validate_spans

    assert validate_spans(_record_tree()) == []


def test_validate_spans_flags_orphans_and_negative_durations():
    from repro.obs.validate import validate_spans

    problems = validate_spans(
        [
            _span("s1"),
            _span("s2", parent_id="ghost"),  # parent never materialised
            _span("s3", parent_id="s1", duration_ns=-5),
        ]
    )
    assert any("orphan span" in p and "'ghost'" in p for p in problems)
    assert any("negative duration" in p for p in problems)
    assert len(problems) == 2


def test_validate_spans_flags_self_parents_and_cycles():
    from repro.obs.validate import validate_spans

    problems = validate_spans(
        [
            _span("s1", parent_id="s1"),
            _span("a", parent_id="b"),
            _span("b", parent_id="a"),
        ]
    )
    assert any("its own parent" in p for p in problems)
    assert any("parent cycle" in p and "a -> b" in p for p in problems)


def test_validate_spans_flags_duplicate_and_empty_ids():
    from repro.obs.validate import validate_spans

    problems = validate_spans([_span("s1"), _span("s1"), _span("")])
    assert any("duplicate span_id 's1'" in p for p in problems)
    assert any("empty span_id" in p for p in problems)


def test_validator_flags_an_orphan_in_an_exported_trace():
    # Corrupt a real trace after export: re-parent one span onto an id
    # that does not exist anywhere in the document.
    document = chrome_trace(_record_tree())
    victim = next(
        e for e in document["traceEvents"]
        if e["ph"] == "X" and e["args"].get("parent_id")
    )
    victim["args"]["parent_id"] = "no-such-span"
    problems = validate_chrome_trace(document)
    assert any(
        "orphan span" in p and "'no-such-span'" in p for p in problems
    )


def test_validator_flags_a_cycle_in_an_exported_trace():
    document = chrome_trace(_record_tree())
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    root = next(e for e in spans if e["args"]["parent_id"] is None)
    child = next(e for e in spans if e["args"]["parent_id"] is not None)
    root["args"]["parent_id"] = child["args"]["span_id"]
    problems = validate_chrome_trace(document)
    assert any("parent cycle" in p for p in problems)

"""Inclusive/exclusive aggregation: the math behind ``hexcc profile``."""

from __future__ import annotations

import pytest

from repro.obs.profile import format_profile, profile_rows, total_wall_s
from repro.obs.spans import Span


def _span(name, span_id, parent_id, duration_ns, pid=1):
    return Span(
        name=name, span_id=span_id, parent_id=parent_id,
        start_ns=0, duration_ns=duration_ns, pid=pid, tid=1, attributes={},
    )


def test_exclusive_subtracts_direct_children_only():
    spans = [
        _span("run", "1", None, 100),
        _span("pass.tiling", "2", "1", 60),
        _span("cache.put", "3", "2", 15),
        _span("pass.memory", "4", "1", 10),
    ]
    rows = {row.name: row for row in profile_rows(spans)}
    assert rows["run"].exclusive_s == 30e-9  # 100 - (60 + 10)
    assert rows["pass.tiling"].exclusive_s == 45e-9  # 60 - 15; grandchild no
    assert rows["cache.put"].exclusive_s == 15e-9
    assert rows["pass.memory"].exclusive_s == 10e-9


def test_exclusive_times_sum_to_the_root_total():
    spans = [
        _span("run", "1", None, 1000),
        _span("a", "2", "1", 400),
        _span("b", "3", "1", 300),
        _span("c", "4", "2", 100),
    ]
    total = total_wall_s(spans)
    assert total == 1000e-9
    accounted = sum(row.exclusive_s for row in profile_rows(spans))
    assert abs(accounted - total) < 1e-15


def test_same_name_spans_aggregate():
    spans = [
        _span("run", "1", None, 100),
        _span("cache.get", "2", "1", 10),
        _span("cache.get", "3", "1", 20),
    ]
    rows = {row.name: row for row in profile_rows(spans)}
    assert rows["cache.get"].count == 2
    assert rows["cache.get"].inclusive_s == pytest.approx(30e-9)


def test_concurrent_children_clamp_exclusive_at_zero():
    # A hand-assembled trace whose children sum past their parent.
    spans = [
        _span("parent", "1", None, 100),
        _span("child", "c1", "1", 90, pid=2),
        _span("child", "c2", "1", 80, pid=3),
    ]
    rows = {row.name: row for row in profile_rows(spans)}
    assert rows["parent"].exclusive_s == 0.0


def test_unresolvable_parents_count_as_roots():
    spans = [_span("orphan", "9", "gone", 50), _span("root", "1", None, 70)]
    assert total_wall_s(spans) == pytest.approx(120e-9)


def test_rows_rank_by_exclusive_time():
    spans = [
        _span("run", "1", None, 100),
        _span("small", "2", "1", 15),
        _span("big", "3", "1", 80),
    ]
    # Exclusive times: big 80, small 15, run 100 - 95 = 5.
    assert [row.name for row in profile_rows(spans)] == ["big", "small", "run"]


def test_format_profile_renders_a_total_row():
    spans = [_span("run", "1", None, 2_000_000)]
    text = format_profile(profile_rows(spans), total_wall_s(spans))
    lines = text.splitlines()
    assert lines[0].split() == ["span", "count", "inclusive", "exclusive", "excl", "%"]
    assert lines[-1].startswith("total")
    assert "100.0%" in lines[-1]

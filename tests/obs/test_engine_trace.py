"""Cross-process trace propagation through the execution engine.

Satellite guarantees: spans recorded inside ``jobs=2`` worker processes
carry their real (distinct) pids, link back to the parent's fan-out span,
and the engine's determinism contract survives tracing.  Plus the pinned,
deterministic span structure of a traced library-stencil compile.
"""

from __future__ import annotations

import os

from repro import obs
from repro.engine import map_ordered
from repro.stencils import get_stencil


def _square(value: int) -> int:
    return value * value


def _traced_square(value: int) -> int:
    with obs.span("work.square", value=value):
        return value * value


def test_serial_tracing_wraps_items():
    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        assert map_ordered(_traced_square, [1, 2, 3], jobs=1) == [1, 4, 9]
    spans = recorder.drain()
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    (fan,) = by_name["engine.map_ordered"]
    assert fan.attributes == {"jobs": 1, "items": 3}
    assert len(by_name["engine.item"]) == 3
    assert all(s.parent_id == fan.span_id for s in by_name["engine.item"])
    assert len(by_name["work.square"]) == 3


def test_parallel_workers_stitch_into_one_trace():
    recorder = obs.TraceRecorder()
    items = list(range(8))
    with obs.use(recorder):
        results = map_ordered(_traced_square, items, jobs=2)
    assert results == [value * value for value in items]

    spans = recorder.drain()
    ids = {span.span_id for span in spans}
    fans = [s for s in spans if s.name == "engine.map_ordered"]
    workers = [s for s in spans if s.name == "engine.worker"]
    squares = [s for s in spans if s.name == "work.square"]
    (fan,) = fans
    assert len(workers) == len(items)
    assert len(squares) == len(items)

    # Worker spans carry real worker pids: distinct from the parent, and at
    # least two distinct processes did the work.
    worker_pids = {span.pid for span in workers}
    assert os.getpid() not in worker_pids
    assert len(worker_pids) == 2

    # Every worker root is parented on the fan-out span; every traced user
    # span is parented on its worker root; every parent link resolves.
    assert all(span.parent_id == fan.span_id for span in workers)
    worker_ids = {span.span_id for span in workers}
    assert all(span.parent_id in worker_ids for span in squares)
    assert all(
        span.parent_id is None or span.parent_id in ids for span in spans
    )
    # Span ids stay unique even though pool processes are reused across items.
    assert len(ids) == len(spans)


def test_parallel_results_identical_with_and_without_tracing():
    items = list(range(6))
    plain = map_ordered(_square, items, jobs=2)
    with obs.use(obs.TraceRecorder()):
        traced = map_ordered(_square, items, jobs=2)
    assert traced == plain == [value * value for value in items]


def test_disabled_telemetry_records_nothing():
    assert map_ordered(_traced_square, [1, 2], jobs=2) == [1, 4]
    assert obs.current().drain() == []


def _span_tree(spans):
    """(name, parent-name) edges — the structure, stripped of ids/timing."""
    names = {span.span_id: span.name for span in spans}
    return sorted(
        (span.name, names.get(span.parent_id)) for span in spans
    )


def test_traced_compile_structure_is_deterministic():
    """The span tree of a library-stencil compile is pinned and repeatable."""
    from repro.api import Session

    program = get_stencil("jacobi_2d", sizes=(20, 18), steps=10)
    trees = []
    for _ in range(2):
        recorder = obs.TraceRecorder()
        Session(telemetry=recorder).run(program, stop_after="analysis")
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

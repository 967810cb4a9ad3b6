"""Deterministic process-pool fan-out.

The engine intentionally exposes a single primitive — :func:`map_ordered` —
because every parallel consumer in this code base (bench suites, table
sweeps, validation batches, tuning sweeps) has the same shape: a list of
independent job descriptions, a pure worker function, and a report assembled
in input order.

Determinism contract: ``map_ordered(fn, items, jobs=N)`` returns exactly
``[fn(item) for item in items]`` for every ``N``.  Parallelism changes wall
time, never results or ordering.  Workers are separate processes; they share
work products through the on-disk artefact cache rather than through memory.

Telemetry: when a trace is being recorded (:func:`repro.obs.current` is
enabled), each parallel item is shipped with a :class:`~repro.obs.TraceContext`
and executed in the worker under a fresh recorder rooted at an
``engine.worker`` span.  The worker's completed spans (carrying its real
pid/tid) ride back with the result and are stitched into the parent trace —
so a fanned-out run produces one coherent trace with per-process tracks.
With telemetry disabled (the default), the fan-out path is byte-for-byte the
old one: no wrapping, no extra pickling.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import Any, TypeVar

from repro import obs

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` argument: ``None``/``0`` mean "all cores"."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class _TracedTask:
    """One parallel item plus the trace context it should record under."""

    function: Callable[[Any], Any]
    item: Any
    index: int
    context: obs.TraceContext


@dataclass(frozen=True)
class _TracedOutcome:
    """A worker's result plus the spans it recorded while computing it."""

    result: Any
    spans: list


def _run_traced(task: _TracedTask) -> _TracedOutcome:
    """Execute one item in a worker under a fresh, linked recorder.

    Runs in the worker process: the spans recorded here carry the worker's
    pid/tid, and the root ``engine.worker`` span is parented on the parent
    process's fan-out span so the subtree stitches into one trace.  A worker
    that raises writes its own crash report (the parent process never sees
    this worker's state).
    """
    recorder = obs.TraceRecorder()
    try:
        with obs.use(recorder), recorder.root_span(
            "engine.worker", context=task.context, item=task.index
        ):
            result = task.function(task.item)
    except Exception as error:
        # Deeper layers (Session.run) may have written a report already;
        # don't produce a second one for the same crash.
        if not getattr(error, "crash_report_path", None):
            obs.log.attach_crash_report(
                error,
                obs.write_crash_report(
                    error,
                    context={"operation": "engine.worker", "item": task.index},
                    recorder=recorder,
                ),
            )
        raise
    return _TracedOutcome(result=result, spans=recorder.drain())


def map_ordered(
    function: Callable[[_Item], _Result],
    items: Iterable[_Item],
    jobs: int | None = 1,
) -> list[_Result]:
    """Apply ``function`` to every item, results in input order.

    ``jobs=1`` (the default) runs serially in-process — no pickling, no
    subprocess, identical semantics.  ``jobs>1`` fans out over a process
    pool; ``function`` and the items must be picklable.  ``jobs=None`` or
    ``0`` uses every core.
    """
    materialised: Sequence[_Item] = list(items)
    effective = resolve_jobs(jobs)
    recorder = obs.current()
    if effective <= 1 or len(materialised) <= 1:
        if not recorder.enabled:
            return [function(item) for item in materialised]
        results: list[_Result] = []
        with obs.span("engine.map_ordered", jobs=1, items=len(materialised)):
            for index, item in enumerate(materialised):
                with obs.span("engine.item", item=index):
                    results.append(function(item))
        return results
    workers = min(effective, len(materialised))
    if not recorder.enabled:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map preserves submission order regardless of
            # completion order, which is the whole determinism story.
            return list(pool.map(function, materialised))
    with obs.span(
        "engine.map_ordered", jobs=workers, items=len(materialised)
    ) as fan_span:
        context = recorder.export_context()
        tasks = [
            _TracedTask(function=function, item=item, index=index, context=context)
            for index, item in enumerate(materialised)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_traced, tasks))
    results = []
    for outcome in outcomes:
        results.append(outcome.result)
        # Worker roots carry parent_id from the exported context already;
        # adopt() re-parents only spans that lost their root (none here).
        recorder.adopt(outcome.spans, parent_id=fan_span.span_id)
    return results

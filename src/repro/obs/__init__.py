"""``repro.obs`` — the zero-dependency telemetry subsystem.

Three pieces (see :doc:`the README's Observability section <README>`):

* **spans** (:mod:`repro.obs.spans`) — hierarchical timed regions threaded
  through the pass pipeline, the disk cache, the execution engine (with
  cross-process propagation), the tuner and the bench runner;
* **metrics** (:mod:`repro.obs.metrics`) — a registry of counters, gauges
  and fixed-bucket histograms with atomic snapshot/merge;
* **exporters** (:mod:`repro.obs.export`, :mod:`repro.obs.profile`) —
  Chrome trace-event JSON (open in Perfetto or chrome://tracing), a JSON
  metrics dump and the inclusive/exclusive profile table behind
  ``hexcc profile``.

The two halves are bundled into a :class:`Telemetry` object.  Exactly one
telemetry is **ambient** at any point (a :mod:`contextvars` variable, so
activations nest correctly); the default is :data:`NULL_TELEMETRY`, whose
recorder and registry are no-ops — instrumented code never checks a flag,
it just calls :func:`span`/:func:`count` and the disabled path costs a few
hundred nanoseconds (bounded by the ``python -m repro.obs.overhead`` gate).

Usage::

    from repro import obs

    telemetry = obs.Telemetry()
    with obs.use(telemetry):
        with obs.span("my.work", items=3):
            ...  # sessions, caches and engine fan-outs record here

    spans = telemetry.recorder.drain()
    obs.export.write_trace("trace.json", spans, telemetry.metrics.snapshot())
"""

from __future__ import annotations

import contextlib
import contextvars
from collections.abc import Iterator
from typing import Any

from repro._lazy import resolve
from repro.obs import log
from repro.obs.log import (
    FLIGHT_RECORDER,
    Event,
    EventLog,
    NullEventLog,
    write_crash_report,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS_MS,
    MetricsRegistry,
    NullMetrics,
    metric_key,
)
from repro.obs.spans import (
    NullRecorder,
    Span,
    SpanHandle,
    TraceContext,
    TraceRecorder,
)

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "Event",
    "EventLog",
    "FLIGHT_RECORDER",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullEventLog",
    "NullMetrics",
    "NullRecorder",
    "Span",
    "SpanHandle",
    "Telemetry",
    "TraceContext",
    "TraceRecorder",
    "attrib",
    "count",
    "current",
    "event",
    "export",
    "gauge",
    "history",
    "log",
    "metric_key",
    "observe",
    "profile",
    "span",
    "use",
    "write_crash_report",
]

#: Exporters and stores imported on first attribute access, so instrumented
#: code pays only for the spans, metrics and events it records.
_EXPORTS = {
    name: f"repro.obs.{name}" for name in ("attrib", "export", "history", "profile")
}


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)


class Telemetry:
    """One recorder + metrics registry + event log, enabled or no-op.

    A disabled telemetry still exposes the process-global
    :data:`~repro.obs.log.FLIGHT_RECORDER` as its event log, so the last N
    events are always available to a crash report even when nothing opted
    into tracing; an enabled telemetry gets its own bounded log.
    """

    __slots__ = ("recorder", "metrics", "events")

    def __init__(
        self,
        enabled: bool = True,
        recorder: NullRecorder | None = None,
        metrics: NullMetrics | None = None,
        events: NullEventLog | None = None,
    ) -> None:
        if recorder is not None:
            self.recorder = recorder
        else:
            self.recorder = TraceRecorder() if enabled else NullRecorder()
        if metrics is not None:
            self.metrics = metrics
        else:
            self.metrics = MetricsRegistry() if enabled else NullMetrics()
        if events is not None:
            self.events = events
        else:
            self.events = EventLog() if enabled else FLIGHT_RECORDER

    @property
    def enabled(self) -> bool:
        return self.recorder.enabled

    def span(self, name: str, **attributes: Any) -> SpanHandle:
        return self.recorder.span(name, **attributes)

    def __repr__(self) -> str:
        return f"Telemetry(enabled={self.enabled})"


#: The ambient default: fully disabled, shared, stateless.
NULL_TELEMETRY = Telemetry(enabled=False)

_ACTIVE: contextvars.ContextVar[Telemetry] = contextvars.ContextVar(
    "hexcc-telemetry", default=NULL_TELEMETRY
)


def current() -> Telemetry:
    """The ambient telemetry (the shared no-op unless :func:`use` is active)."""
    return _ACTIVE.get()


@contextlib.contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Make ``telemetry`` ambient for the duration of the block (re-entrant)."""
    token = _ACTIVE.set(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.reset(token)


def span(name: str, **attributes: Any) -> SpanHandle:
    """Open a span on the ambient recorder (a no-op handle when disabled)."""
    return _ACTIVE.get().recorder.span(name, **attributes)


def event(name: str, level: str = "info", **fields: Any) -> None:
    """Emit a structured event on the ambient log.

    The active span id and trace id are captured at emit time, so the
    event can be joined back onto the trace; under the fully disabled
    telemetry the event still lands in the process-global flight recorder
    (bounded ring, microsecond cost) for post-mortems.
    """
    telemetry = _ACTIVE.get()
    telemetry.events.emit(
        name,
        level=level,
        span_id=telemetry.recorder.current_span_id(),
        trace_id=telemetry.recorder.trace_id,
        **fields,
    )


def count(name: str, value: float = 1.0, **labels: Any) -> None:
    """Increment a counter on the ambient registry."""
    _ACTIVE.get().metrics.count(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge on the ambient registry."""
    _ACTIVE.get().metrics.gauge(name, value, **labels)


def observe(
    name: str,
    value: float,
    buckets: tuple[float, ...] = DEFAULT_BUCKETS_MS,
    **labels: Any,
) -> None:
    """Record a histogram sample on the ambient registry."""
    _ACTIVE.get().metrics.observe(name, value, buckets, **labels)

"""``repro.obs`` — the zero-dependency telemetry subsystem.

The span is the one telemetry record (see :doc:`the README's Observability
section <README>`):

* **spans** (:mod:`repro.obs.spans`) — hierarchical timed regions threaded
  through the pass pipeline, the disk cache, the tuner and the bench runner;
* **exporters** (:mod:`repro.obs.export`, :mod:`repro.obs.profile`) —
  Chrome trace-event JSON (open in Perfetto or chrome://tracing) and the
  inclusive/exclusive profile table behind ``hexcc profile``;
* **crash reports** (:mod:`repro.obs.log`) — the post-mortem document a
  failing pass or tuning sweep leaves behind.

Exactly one span recorder is **ambient** at any point (a :mod:`contextvars`
variable, so activations nest correctly); the default is
:data:`NULL_TELEMETRY`, a no-op :class:`NullRecorder` — instrumented code
never checks a flag, it just calls :func:`span` and the disabled path costs
a few hundred nanoseconds (bounded by the ``python -m repro.obs.overhead``
gate).

Usage::

    from repro import obs

    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        with obs.span("my.work", items=3):
            ...  # sessions, caches and tuning sweeps record here

    obs.export.write_trace("trace.json", recorder.drain())
"""

from __future__ import annotations

import contextlib
import contextvars
from collections.abc import Iterator
from typing import Any

from repro._lazy import resolve
from repro.obs import log
from repro.obs.log import write_crash_report
from repro.obs.spans import (
    NullRecorder,
    Span,
    SpanHandle,
    TraceRecorder,
)

__all__ = [
    "NULL_TELEMETRY",
    "NullRecorder",
    "Span",
    "SpanHandle",
    "TraceRecorder",
    "attrib",
    "current",
    "export",
    "history",
    "log",
    "profile",
    "span",
    "use",
    "write_crash_report",
]

#: Exporters and stores imported on first attribute access, so instrumented
#: code pays only for the spans it records.
_EXPORTS = {
    name: f"repro.obs.{name}" for name in ("attrib", "export", "history", "profile")
}


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)


#: The ambient default: fully disabled, shared, stateless.
NULL_TELEMETRY = NullRecorder()

_ACTIVE: contextvars.ContextVar[NullRecorder] = contextvars.ContextVar(
    "hexcc-telemetry", default=NULL_TELEMETRY
)


def current() -> NullRecorder:
    """The ambient recorder (the shared no-op unless :func:`use` is active)."""
    return _ACTIVE.get()


@contextlib.contextmanager
def use(recorder: NullRecorder) -> Iterator[NullRecorder]:
    """Make ``recorder`` ambient for the duration of the block (re-entrant)."""
    token = _ACTIVE.set(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE.reset(token)


def span(name: str, **attributes: Any) -> SpanHandle:
    """Open a span on the ambient recorder (a no-op handle when disabled)."""
    return _ACTIVE.get().span(name, **attributes)

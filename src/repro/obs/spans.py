"""Hierarchical spans: the one record of the telemetry subsystem.

A **span** is one timed, named region of work with attributes and a parent
link; the spans of one run form a tree (pipeline passes under the session
run, cache I/O under the pass that triggered it).  Two recorder
implementations share one handle type:

* :class:`TraceRecorder` — retains completed spans for export
  (:mod:`repro.obs.export`) and aggregation (:mod:`repro.obs.profile`);
* :class:`NullRecorder` — the disabled default: the handle still measures
  its wall time with :func:`time.perf_counter_ns` (so instrumented code can
  read ``handle.duration_s`` as its single timing source), but nothing is
  retained and no ids are assigned.

Timing discipline: **durations** come from the monotonic
``perf_counter_ns`` clock; **timestamps** are wall-clock-anchored (each
recorder pins ``time_ns`` against ``perf_counter_ns`` once at construction)
so a Chrome trace shows spans at the time of day they ran.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from repro._record import dataclass
from collections.abc import Mapping
from typing import Any

#: Process-global span sequence.  Ids are ``{pid:x}-{seq}``; the sequence
#: is shared by every recorder in the process, so spans of two recorders
#: (say, a session's own and the ambient one) never mint the same id.
_SPAN_SEQ = itertools.count(1)


@dataclass(frozen=True)
class Span:
    """One completed span (immutable)."""

    name: str
    span_id: str
    parent_id: str | None
    start_ns: int  # wall-clock-anchored nanoseconds (one timeline per host)
    duration_ns: int  # measured on the monotonic perf_counter clock
    pid: int
    tid: int
    attributes: Mapping[str, Any]
    error: str | None = None

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    def describe(self) -> str:
        label = f"{self.name} {self.duration_ns / 1e6:.3f} ms"
        if self.error:
            label += f" ERROR({self.error})"
        return label


class SpanHandle:
    """Context manager measuring one span; shared by both recorders.

    ``duration_s`` is valid after ``__exit__`` even under the null recorder,
    so instrumented code has exactly one timing source whether or not a
    trace is being retained.
    """

    __slots__ = (
        "_recorder",
        "name",
        "attributes",
        "span_id",
        "parent_id",
        "_start_perf_ns",
        "duration_s",
        "error",
    )

    def __init__(
        self,
        recorder: "NullRecorder",
        name: str,
        attributes: dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.attributes = attributes
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self._start_perf_ns = 0
        self.duration_s = 0.0
        self.error: str | None = None

    def set(self, **attributes: Any) -> "SpanHandle":
        """Attach attributes to the span while it is open."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "SpanHandle":
        self._recorder._enter(self)
        self._start_perf_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_perf_ns = time.perf_counter_ns()
        self.duration_s = (end_perf_ns - self._start_perf_ns) / 1e9
        if exc_type is not None and self.error is None:
            self.error = f"{exc_type.__name__}: {exc}"
        self._recorder._exit(self, end_perf_ns)
        return False


class NullRecorder:
    """The disabled recorder: handles time themselves, nothing is retained."""

    enabled = False

    def span(self, name: str, **attributes: Any) -> SpanHandle:
        return SpanHandle(self, name, attributes)

    # The handle protocol: nothing to do when disabled.
    def _enter(self, handle: SpanHandle) -> None:
        pass

    def _exit(self, handle: SpanHandle, end_perf_ns: int) -> None:
        pass

    def open_spans(self) -> list[tuple[str, str]]:
        """``(span_id, name)`` of every currently open span, outermost first."""
        return []

    def drain(self) -> list[Span]:
        return []


class TraceRecorder(NullRecorder):
    """Retains completed spans and maintains the open-span parent stack.

    The stack is per-recorder and not synchronised: one recorder serves one
    thread of control.  The recorded ``tid`` still distinguishes threads if
    a recorder is ever shared.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._pid = os.getpid()
        self._stack: list[tuple[str, str]] = []  # (span_id, name), innermost last
        # Pin the wall clock against the monotonic clock once, so every
        # span's timestamp is monotonic *and* anchored to the time of day.
        self._epoch_wall_ns = time.time_ns()
        self._epoch_perf_ns = time.perf_counter_ns()

    def span(self, name: str, **attributes: Any) -> SpanHandle:
        return SpanHandle(self, name, attributes)

    def open_spans(self) -> list[tuple[str, str]]:
        """``(span_id, name)`` of every currently open span, outermost first."""
        return list(self._stack)

    def _enter(self, handle: SpanHandle) -> None:
        handle.span_id = f"{self._pid:x}-{next(_SPAN_SEQ)}"
        if self._stack:
            handle.parent_id = self._stack[-1][0]
        self._stack.append((handle.span_id, handle.name))

    def _exit(self, handle: SpanHandle, end_perf_ns: int) -> None:
        if self._stack and self._stack[-1][0] == handle.span_id:
            self._stack.pop()
        # round(), not int(): truncation loses 1 ns for ~2% of durations,
        # breaking duration_s == handle.duration_s exact round-trips.
        start_perf_ns = end_perf_ns - round(handle.duration_s * 1e9)
        self.spans.append(
            Span(
                name=handle.name,
                span_id=handle.span_id or "",
                parent_id=handle.parent_id,
                start_ns=self._epoch_wall_ns
                + (start_perf_ns - self._epoch_perf_ns),
                duration_ns=end_perf_ns - start_perf_ns,
                pid=self._pid,
                tid=threading.get_native_id(),
                attributes=dict(handle.attributes),
                error=handle.error,
            )
        )

    def drain(self) -> list[Span]:
        """Return every completed span and clear the buffer."""
        spans, self.spans = self.spans, []
        return spans

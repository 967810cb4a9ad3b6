"""Exporter: Chrome trace-event JSON.

The trace format is the Trace Event Format consumed by Perfetto
(https://ui.perfetto.dev) and chrome://tracing: a ``traceEvents`` list of
complete-duration (``"ph": "X"``) events with microsecond timestamps, plus
one ``"M"`` metadata event naming the process ``hexcc``.  Span ids and
parent links ride in each event's ``args`` so the structure survives the
export (and the CI trace-smoke job can check that every reference resolves,
see :mod:`repro.obs.validate`).
"""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Sequence
from typing import Any

from repro.obs.spans import Span

#: Top-level document keys (also checked by the validator).
TRACE_KIND = "hexcc-trace"
TRACE_SCHEMA_VERSION = 1


def chrome_trace(spans: Sequence[Span]) -> dict[str, Any]:
    """Build a Chrome trace-event document from completed spans."""
    events: list[dict[str, Any]] = []
    seen_pids: dict[int, None] = {}
    for span in spans:
        seen_pids.setdefault(span.pid, None)
    for pid in seen_pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "hexcc"},
            }
        )
    for span in spans:
        args: dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        for key, value in span.attributes.items():
            args[key] = value if isinstance(value, (int, float, bool)) else str(value)
        if span.error:
            args["error"] = span.error
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": span.start_ns / 1e3,  # microseconds
                "dur": span.duration_ns / 1e3,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "kind": TRACE_KIND,
            "schema_version": TRACE_SCHEMA_VERSION,
            "spans": len(spans),
            "processes": len(seen_pids),
        },
    }


def write_trace(path: str | Path, spans: Sequence[Span]) -> Path:
    """Serialise a Chrome trace to ``path``; returns the written path."""
    destination = Path(path)
    destination.write_text(json.dumps(chrome_trace(spans), indent=2) + "\n")
    return destination


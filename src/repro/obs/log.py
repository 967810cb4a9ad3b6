"""Crash reports: the post-mortem a failing pass or tuning sweep leaves.

When a pipeline pass or the tuner loop raises,
:func:`write_crash_report` persists a post-mortem document — the exception
and traceback, the operation context, the open span stack, and the
artifact stage keys computed so far — under ``$HEXCC_CACHE_DIR/crash/`` and
returns its path (the CLI prints it).  Reports are retained newest-first up
to ``$HEXCC_CRASH_KEEP`` (default 20); writing is best-effort and never
masks the original exception.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from pathlib import Path
from collections.abc import Mapping
from typing import Any

#: Crash-report document identity.
CRASH_KIND = "hexcc-crash"
CRASH_SCHEMA_VERSION = 2

#: Retention knobs (see the README's Observability section).
CRASH_KEEP_ENV = "HEXCC_CRASH_KEEP"
DEFAULT_CRASH_KEEP = 20
#: Set non-empty to suppress crash-report files entirely.
CRASH_DISABLE_ENV = "HEXCC_CRASH_DISABLE"


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def crash_report_dir() -> Path:
    """Where crash reports land: ``<cache dir>/crash``."""
    from repro.cache.disk import default_cache_dir

    return default_cache_dir() / "crash"


def crash_keep() -> int:
    """How many crash reports to retain (``$HEXCC_CRASH_KEEP``)."""
    raw = os.environ.get(CRASH_KEEP_ENV)
    try:
        keep = int(raw) if raw else DEFAULT_CRASH_KEEP
    except ValueError:
        return DEFAULT_CRASH_KEEP
    return max(1, keep)


def _prune_crash_reports(directory: Path, keep: int) -> None:
    reports = sorted(directory.glob("crash-*.json"))
    for stale in reports[: max(0, len(reports) - keep)]:
        try:
            stale.unlink()
        except OSError:
            pass


def write_crash_report(
    error: BaseException,
    *,
    context: Mapping[str, Any] | None = None,
    recorder: Any = None,
    stage_keys: Mapping[str, str] | None = None,
) -> Path | None:
    """Persist a post-mortem document for ``error``; returns its path.

    ``recorder`` defaults to the ambient span recorder; its open span stack
    is embedded.  Returns ``None`` when crash reporting is disabled
    (``$HEXCC_CRASH_DISABLE``) or the report cannot be written — never
    raises, so the original exception stays primary.
    """
    if os.environ.get(CRASH_DISABLE_ENV):
        return None
    from repro import obs

    if recorder is None:
        recorder = obs.current()
    document = {
        "kind": CRASH_KIND,
        "schema_version": CRASH_SCHEMA_VERSION,
        "ts_ns": time.time_ns(),
        "pid": os.getpid(),
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exception(
                type(error), error, error.__traceback__
            ),
        },
        "context": {k: _json_safe(v) for k, v in (context or {}).items()},
        "span_stack": [
            {"span_id": span_id, "name": name}
            for span_id, name in recorder.open_spans()
        ],
        "stage_keys": dict(stage_keys or {}),
    }
    try:
        directory = crash_report_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"crash-{time.time_ns()}-{os.getpid()}.json"
        path.write_text(json.dumps(document, indent=2) + "\n")
        _prune_crash_reports(directory, crash_keep())
    except OSError:
        return None
    return path


def attach_crash_report(error: BaseException, path: Path | None) -> None:
    """Remember the report path on the exception (the CLI prints it)."""
    if path is not None and not getattr(error, "crash_report_path", None):
        error.crash_report_path = str(path)  # type: ignore[attr-defined]

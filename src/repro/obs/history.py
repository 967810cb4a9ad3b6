"""Persistent run history: the compiles, benches and tunes users ran, on disk.

Telemetry from :mod:`repro.obs` evaporates when the process exits; the
history store makes the interesting part durable.  Only ``hexcc`` commands
write it: one ``compile`` record per pipeline run a command makes on the
program the user named (``compile``, ``compile-file``, ``inspect``,
``verify``, ``validate``, ``validate-file``, ``trace``, ``profile``), one
``tune`` record per ``hexcc tune`` and one ``bench`` record per suite of
``hexcc bench``.  Library calls (``Session.run``, ``tune``, ``run_bench``)
write nothing, so neither do the runs inside a sweep (tuning candidates,
bench repeats, table cells).  Records are one JSON object per line,
append-only, under ``$HEXCC_CACHE_DIR/history/runs.jsonl`` — append is a
single ``O(1)`` write (POSIX appends of one small line are effectively
atomic), so recording never measurably taxes the run it describes.  The
file self-compacts: once it exceeds a size threshold the newest
:data:`HISTORY_KEEP` (2000) records are rewritten atomically via
``os.replace``.

Every record is schema-versioned and carries

* ``kind`` (``compile`` | ``bench`` | ``tune``) and an ``id`` — a short
  content digest used by ``hexcc perf diff`` selectors;
* the program digest, strategy and device that identify *what* ran;
* per-pass wall times with cache provenance (``computed`` vs ``memory`` /
  ``disk`` hits) — the raw material for regression attribution across
  history windows.

A failed append returns ``None`` and never fails the run.  A line that is
not a record of this schema, or whose fields lack the types the writers
give them, is skipped on reading.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from repro._record import dataclass
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

HISTORY_KIND = "hexcc-run"
HISTORY_SCHEMA_VERSION = 1

#: How many records compaction retains.
HISTORY_KEEP = 2000

#: Compact once the JSONL file grows past this many bytes.
_COMPACT_THRESHOLD_BYTES = 8 * 1024 * 1024

_NUMBER = (int, float)
#: The JSON type the writers below give each field, in every record and
#: per kind; a line in which a present field has another type is skipped.
_COMMON_TYPES = {"id": str, "kind": str, "ts_ns": int}
_KIND_TYPES = {
    "compile": {
        "program": str,
        "digest": str,
        "strategy": str,
        "device": str,
        "stop": str,
        "wall_ms": _NUMBER,
        "passes": list,
    },
    "bench": {"suite": str, "device": str, "entries": list},
    "tune": {
        "program": str,
        "strategy_space": str,
        "trials": int,
        "best_score": _NUMBER,
        "best_config": dict,
    },
}
#: ...and each item of a ``compile`` record's ``passes``, which is a dict.
_PASS_TYPES = {"name": str, "wall_ms": _NUMBER, "source": str, "counters": dict}


def history_dir() -> Path:
    """Where history lives: ``<cache dir>/history``."""
    from repro.cache.disk import default_cache_dir

    return default_cache_dir() / "history"


def _typed(data: Mapping[str, Any], types: Mapping[str, Any]) -> bool:
    return all(
        name not in data or isinstance(data[name], kind) for name, kind in types.items()
    )


def _well_formed(data: Mapping[str, Any]) -> bool:
    """Whether a parsed line's fields have the types the writers give them."""
    if not _typed(data, _COMMON_TYPES):
        return False
    # A nanosecond time stamp in time.localtime's range (up to year 2262).
    if not 0 <= data.get("ts_ns", 0) < 2**63:
        return False
    kind = data.get("kind")
    if not _typed(data, _KIND_TYPES.get(kind, {})):
        return False
    passes = data.get("passes", []) if kind == "compile" else []
    return all(isinstance(p, dict) and _typed(p, _PASS_TYPES) for p in passes)


def _record_id(payload: Mapping[str, Any]) -> str:
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    )
    return digest.hexdigest()[:12]


@dataclass(frozen=True)
class RunRecord:
    """One history line, parsed.  ``data`` is the raw JSON document."""

    id: str
    kind: str  # "compile" | "bench" | "tune"
    ts_ns: int
    data: Mapping[str, Any]

    @property
    def when(self) -> str:
        return time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(self.ts_ns / 1e9)
        )

    def describe(self) -> str:
        data = self.data
        label = f"{self.id}  {self.when}  {self.kind:<7}"
        if self.kind == "compile":
            label += (
                f" {data.get('program', '?')}"
                f" [{data.get('strategy', '?')}]"
                f" {data.get('wall_ms', 0.0):.3f} ms"
            )
            sources = [p.get("source") for p in data.get("passes", ())]
            hits = sum(1 for s in sources if s in ("memory", "disk"))
            if sources:
                label += f"  cache {hits}/{len(sources)}"
        elif self.kind == "bench":
            label += (
                f" suite={data.get('suite', '?')}"
                f" stencils={len(data.get('entries', ()))}"
            )
        elif self.kind == "tune":
            label += (
                f" {data.get('program', '?')}"
                f" trials={data.get('trials', '?')}"
                f" best={data.get('best_score', 0.0):.6g}"
            )
        return label


class RunHistory:
    """The append-only JSONL store (one instance per directory)."""

    def __init__(self, directory: Path | None = None) -> None:
        self.directory = directory if directory is not None else history_dir()
        self.path = self.directory / "runs.jsonl"

    def append(self, kind: str, data: Mapping[str, Any]) -> RunRecord | None:
        """Append one record; returns it (or ``None`` when the write fails)."""
        payload = dict(data)
        record = {
            "schema": HISTORY_KIND,
            "schema_version": HISTORY_SCHEMA_VERSION,
            "kind": kind,
            "ts_ns": time.time_ns(),
            "id": _record_id({"kind": kind, **payload}),
            **payload,
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, default=str) + "\n")
            self._maybe_compact()
        except OSError:
            return None
        return RunRecord(
            id=record["id"], kind=kind, ts_ns=record["ts_ns"], data=record
        )

    def records(
        self, kind: str | None = None, limit: int | None = None
    ) -> list[RunRecord]:
        """The newest ``limit`` retained records (all when ``None``), oldest
        first; malformed lines (see :func:`_well_formed`) are skipped."""
        out: list[RunRecord] = []
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return out
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(data, dict) or data.get("schema") != HISTORY_KIND:
                continue
            if not _well_formed(data):
                continue
            if kind is not None and data.get("kind") != kind:
                continue
            out.append(
                RunRecord(
                    id=data.get("id", ""),
                    kind=data.get("kind", ""),
                    ts_ns=data.get("ts_ns", 0),
                    data=data,
                )
            )
        if limit is not None:
            out = out[-limit:] if limit > 0 else []
        return out

    def select(self, selector: str, kind: str | None = None) -> RunRecord:
        """Resolve a CLI selector to one record.

        ``last`` (or ``last~N`` for the N-th most recent) and unambiguous
        record-id prefixes are accepted; raises ``LookupError`` otherwise.
        """
        records = self.records(kind=kind)
        if not records:
            raise LookupError("run history is empty")
        if selector == "last":
            return records[-1]
        if selector.startswith("last~"):
            try:
                back = int(selector[5:])
            except ValueError:
                raise LookupError(f"bad selector {selector!r}") from None
            if back < 0 or back >= len(records):
                raise LookupError(
                    f"{selector!r} is out of range ({len(records)} records)"
                )
            return records[-1 - back]
        matches = [r for r in records if r.id.startswith(selector)]
        if not matches:
            raise LookupError(f"no record matches {selector!r}")
        if len({r.id for r in matches}) > 1:
            raise LookupError(
                f"{selector!r} is ambiguous ({len(matches)} matches)"
            )
        return matches[-1]

    def _maybe_compact(self) -> None:
        try:
            if os.path.getsize(self.path) < _COMPACT_THRESHOLD_BYTES:
                return
        except OSError:
            return
        self.compact()

    def compact(self, keep: int = HISTORY_KEEP) -> None:
        """Rewrite the store with only the newest ``keep`` records."""
        kept = self.records()[-keep:]
        tmp = self.path.with_suffix(".jsonl.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                for record in kept:
                    handle.write(json.dumps(record.data, default=str) + "\n")
            os.replace(tmp, self.path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass


def compile_record(
    *,
    program: str,
    digest: str,
    strategy: str,
    device: str,
    stop: str,
    wall_ms: float,
    passes: Sequence[Mapping[str, Any]],
) -> dict[str, Any]:
    """Build the ``compile`` history payload for one ``Session.run``."""
    return {
        "program": program,
        "digest": digest,
        "strategy": strategy,
        "device": device,
        "stop": stop,
        "wall_ms": round(float(wall_ms), 6),
        "passes": [dict(p) for p in passes],
    }


def bench_record(
    *, suite: str, device: str, entries: Iterable[Mapping[str, Any]]
) -> dict[str, Any]:
    """Build the ``bench`` payload: per-stencil medians, not raw runs."""
    summary = []
    for entry in entries:
        item: dict[str, Any] = {"stencil": entry.get("stencil")}
        wall = entry.get("wall_s")
        if isinstance(wall, Mapping) and "median" in wall:
            item["wall_ms"] = round(float(wall["median"]) * 1e3, 6)
        timings = entry.get("timings")
        if isinstance(timings, Mapping):
            item["timings_ms"] = {
                name: round(float(stats.get("median", 0.0)) * 1e3, 6)
                for name, stats in timings.items()
                if isinstance(stats, Mapping)
            }
        summary.append(item)
    return {"suite": suite, "device": device, "entries": summary}


def tune_record(
    *,
    program: str,
    strategy_space: str,
    trials: int,
    best_score: float,
    best_config: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build the ``tune`` payload: the sweep summary, not every trial.

    ``best_score`` is the best candidate's modelled GPU time in seconds
    (the analysis pass's roofline estimate).
    """
    return {
        "program": program,
        "strategy_space": strategy_space,
        "trials": int(trials),
        "best_score": float(best_score),
        "best_config": dict(best_config or {}),
    }

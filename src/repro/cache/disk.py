"""A content-hash-keyed, schema-versioned on-disk artefact cache.

Entries are pickled payloads wrapped in a ``(kind, schema_version, payload)``
envelope and written atomically (temp file + ``os.replace``), so concurrent
writers — separate ``hexcc`` processes pointed at one cache directory — can
share it without locking: the worst case is the same artefact being
compiled twice, never a torn read.

Robustness rules:

* a corrupt entry (truncated pickle, wrong envelope, unpicklable payload) is
  **ignored and deleted**, never fatal;
* an entry written by a different schema version is ignored and deleted;
* hit/miss/store counts are kept per instance and merged (best effort) into a
  ``stats.json`` next to the entries, so ``hexcc cache stats`` can report the
  cumulative numbers across processes.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import tempfile
from pathlib import Path

from repro import obs
from repro._record import dataclass, field

#: Bump when the pickled artefact layout changes incompatibly; old entries
#: are then ignored (and garbage collected) instead of being unpickled.
SCHEMA_VERSION = 1

_ENVELOPE_KIND = "hexcc-artefact"

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "HEXCC_CACHE_DIR"

#: Set to a non-empty value to disable the default disk cache entirely.
CACHE_DISABLE_ENV = "HEXCC_CACHE_DISABLE"


def default_cache_dir() -> Path:
    """The default on-disk cache location.

    ``$HEXCC_CACHE_DIR`` when set, else ``$XDG_CACHE_HOME/hexcc``, else
    ``~/.cache/hexcc``.
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hexcc"


@dataclass(frozen=True)
class CacheStats:
    """Counters and sizes of one cache directory."""

    root: str
    entries: int
    bytes: int
    hits: int
    misses: int
    stores: int
    evicted: int
    #: Per-pipeline-stage hit/miss/store breakdown (stage name -> counters),
    #: so sweep-heavy workloads (``hexcc tune``) are observable per pass.
    stages: dict = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"cache root : {self.root}",
            f"entries    : {self.entries}",
            f"size       : {self.bytes / 1024.0:.1f} KiB",
            f"hits       : {self.hits}",
            f"misses     : {self.misses}",
            f"stores     : {self.stores}",
            f"evicted    : {self.evicted}",
        ]
        if self.stages:
            lines.append("per-stage  :")
            lines.append(f"  {'stage':<14} {'hits':>8} {'misses':>8} {'stores':>8}")
            for stage in sorted(self.stages):
                counters = self.stages[stage]
                lines.append(
                    f"  {stage:<14} {counters.get('hits', 0):>8} "
                    f"{counters.get('misses', 0):>8} {counters.get('stores', 0):>8}"
                )
        return "\n".join(lines)


class DiskCache:
    """Content-addressed pickle cache rooted at one directory.

    Entries live under ``<root>/v<SCHEMA_VERSION>/<key>.pkl``; the schema
    version in the path means a layout change simply starts a fresh
    namespace, and the version in the envelope protects against entries
    copied across namespaces.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.entry_dir = self.root / f"v{SCHEMA_VERSION}"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evicted = 0
        # stage name -> {"hits": n, "misses": n, "stores": n}
        self.stage_counters: dict[str, dict[str, int]] = {}

    def _count_stage(self, stage: str | None, event: str) -> None:
        if stage is None:
            return
        counters = self.stage_counters.setdefault(
            stage, {"hits": 0, "misses": 0, "stores": 0}
        )
        counters[event] += 1

    @staticmethod
    def default() -> "DiskCache | None":
        """The default cache, or ``None`` when disabled via the environment."""
        if os.environ.get(CACHE_DISABLE_ENV):
            return None
        return DiskCache()

    # -- entry IO ---------------------------------------------------------------

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys must be lowercase hex digests, got {key!r}")
        return self.entry_dir / f"{key}.pkl"

    def get(self, key: str, stage: str | None = None) -> object | None:
        """Fetch and unpickle one entry; corrupt or stale entries are dropped.

        ``stage`` (a pipeline pass name) attributes the hit/miss to a
        per-stage counter for ``hexcc cache stats``; the ``cache.get`` span
        records the outcome (``hit``, ``miss`` or ``stale``).
        """
        with obs.span("cache.get", stage=stage) as span:
            path = self._path(key)
            try:
                blob = path.read_bytes()
            except OSError:
                span.set(outcome="miss")
                self._miss(stage)
                return None
            try:
                with obs.span("cache.deserialize", stage=stage, bytes=len(blob)):
                    envelope = pickle.loads(blob)
                kind, version, payload = envelope
                if kind != _ENVELOPE_KIND or version != SCHEMA_VERSION:
                    raise ValueError(f"stale envelope {kind!r} v{version!r}")
            except Exception:
                # Truncated write, foreign file or stale schema: treat as a
                # miss and garbage-collect the entry so it is not re-read
                # forever.
                self._discard(path)
                span.set(outcome="stale")
                self._miss(stage)
                return None
            span.set(outcome="hit", bytes=len(blob))
            self.hits += 1
            self._count_stage(stage, "hits")
            return payload

    def _miss(self, stage: str | None) -> None:
        self.misses += 1
        self._count_stage(stage, "misses")

    def put(self, key: str, payload: object, stage: str | None = None) -> None:
        """Atomically write one entry (last writer wins)."""
        with obs.span("cache.put", stage=stage) as span:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            with obs.span("cache.serialize", stage=stage):
                blob = pickle.dumps(
                    (_ENVELOPE_KIND, SCHEMA_VERSION, payload),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            span.set(bytes=len(blob))
            descriptor, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    handle.write(blob)
                os.replace(temp_name, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(temp_name)
                raise
            self.stores += 1
            self._count_stage(stage, "stores")

    def _discard(self, path: Path) -> None:
        with contextlib.suppress(OSError):
            path.unlink()
            self.evicted += 1

    # -- maintenance ------------------------------------------------------------

    def _entries(self) -> list[Path]:
        if not self.entry_dir.is_dir():
            return []
        return sorted(
            p for p in self.entry_dir.iterdir()
            if p.suffix == ".pkl" and not p.name.startswith(".tmp-")
        )

    def clear(self) -> int:
        """Remove every entry (all schema namespaces) and reset the stats."""
        removed = 0
        if self.root.is_dir():
            for namespace in sorted(self.root.iterdir()):
                if not namespace.is_dir() or not namespace.name.startswith("v"):
                    continue
                for path in sorted(namespace.iterdir()):
                    if path.suffix == ".pkl":
                        with contextlib.suppress(OSError):
                            path.unlink()
                            removed += 1
        stats_path = self.root / "stats.json"
        with contextlib.suppress(OSError):
            stats_path.unlink()
        return removed

    def stats(self) -> CacheStats:
        """Current stats: this instance's counters merged with ``stats.json``.

        Robust on a fresh or concurrently-modified cache directory: a
        missing directory, a malformed ``stats.json`` or an entry deleted
        between listing and ``stat()`` all degrade to zeros, never raise.
        """
        persisted, persisted_stages = self._read_persisted_stats()
        total_bytes = 0
        count = 0
        for path in self._entries():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue  # deleted by a concurrent clear/GC: skip, don't crash
            count += 1
        stages: dict[str, dict[str, int]] = {
            name: dict(counters) for name, counters in persisted_stages.items()
        }
        for name, counters in self.stage_counters.items():
            merged = stages.setdefault(name, {"hits": 0, "misses": 0, "stores": 0})
            for event, value in counters.items():
                merged[event] = merged.get(event, 0) + value
        return CacheStats(
            root=str(self.root),
            entries=count,
            bytes=total_bytes,
            hits=self.hits + persisted.get("hits", 0),
            misses=self.misses + persisted.get("misses", 0),
            stores=self.stores + persisted.get("stores", 0),
            evicted=self.evicted + persisted.get("evicted", 0),
            stages=stages,
        )

    # -- cross-process counters ---------------------------------------------------

    def _read_persisted_stats(self) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
        """The ``(totals, per_stage)`` counters of ``stats.json``, best effort."""
        try:
            raw = json.loads((self.root / "stats.json").read_text())
        except (OSError, ValueError):
            return {}, {}
        if not isinstance(raw, dict):
            # A foreign or truncated stats file must read as empty, not crash
            # ``hexcc cache stats``.
            return {}, {}
        totals = {k: int(v) for k, v in raw.items() if isinstance(v, (int, float))}
        stages: dict[str, dict[str, int]] = {}
        if isinstance(raw.get("stages"), dict):
            for name, counters in raw["stages"].items():
                if not isinstance(counters, dict):
                    continue
                stages[str(name)] = {
                    str(event): int(value)
                    for event, value in counters.items()
                    if isinstance(value, (int, float))
                }
        return totals, stages

    def flush_stats(self) -> None:
        """Merge this instance's counters into ``stats.json`` (best effort).

        Read-modify-write without locking: concurrent flushes may undercount,
        which is acceptable for an informational counter.
        """
        if not (self.hits or self.misses or self.stores or self.evicted):
            return
        merged, merged_stages = self._read_persisted_stats()
        for name in ("hits", "misses", "stores", "evicted"):
            merged[name] = merged.get(name, 0) + getattr(self, name)
        for name, counters in self.stage_counters.items():
            stage = merged_stages.setdefault(name, {})
            for event, value in counters.items():
                stage[event] = stage.get(event, 0) + value
        document: dict = dict(merged)
        if merged_stages:
            document["stages"] = merged_stages
        self.root.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(dir=self.root, prefix=".stats-")
        try:
            with os.fdopen(descriptor, "w") as handle:
                json.dump(document, handle)
            os.replace(temp_name, self.root / "stats.json")
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
            raise
        self.hits = self.misses = self.stores = self.evicted = 0
        self.stage_counters = {}

    def __repr__(self) -> str:
        return f"DiskCache({str(self.root)!r})"

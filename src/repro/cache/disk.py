"""A content-hash-keyed, schema-versioned on-disk artefact cache.

Entries are pickled payloads wrapped in a ``(kind, schema_version, payload)``
envelope and written atomically (temp file + ``os.replace``), so concurrent
writers — separate ``hexcc`` processes pointed at one cache directory — can
share it without locking: the worst case is the same artefact being
compiled twice, never a torn read.

Robustness rules:

* a corrupt entry (truncated pickle, wrong envelope, unpicklable payload) is
  **ignored and deleted**, never fatal;
* an entry written by a different schema version is ignored and deleted.

The cache writes nothing but entries: hit/miss/store counts live on the
instance (the bench report reads them), each ``cache.get`` span records its
outcome, and a ``hexcc`` run's history record says which passes it read
from disk.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
from pathlib import Path

from repro import obs
from repro._record import dataclass

#: Bump when the pickled artefact layout changes incompatibly; old entries
#: are then ignored (and garbage collected) instead of being unpickled.
SCHEMA_VERSION = 1

_ENVELOPE_KIND = "hexcc-artefact"

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "HEXCC_CACHE_DIR"


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
    """What one cache directory holds."""

    root: str
    entries: int
    bytes: int

    def describe(self) -> str:
        return "\n".join(
            [
                f"cache root : {self.root}",
                f"entries    : {self.entries}",
                f"size       : {self.bytes / 1024.0:.1f} KiB",
            ]
        )


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

    # -- entry IO ---------------------------------------------------------------

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys must be lowercase hex digests, got {key!r}")
        return self.entry_dir / f"{key}.pkl"

    def get(self, key: str, stage: str | None = None) -> object | None:
        """Fetch and unpickle one entry; corrupt or stale entries are dropped.

        ``stage`` (a pipeline pass name) labels the ``cache.get`` span, which
        records the outcome (``hit``, ``miss`` or ``stale``).
        """
        with obs.span("cache.get", stage=stage) as span:
            path = self._path(key)
            try:
                blob = path.read_bytes()
            except OSError:
                span.set(outcome="miss")
                self.misses += 1
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
                with contextlib.suppress(OSError):
                    path.unlink()
                span.set(outcome="stale")
                self.misses += 1
                return None
            span.set(outcome="hit", bytes=len(blob))
            self.hits += 1
            return payload

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

    # -- maintenance ------------------------------------------------------------

    def _entries(self) -> list[Path]:
        if not self.entry_dir.is_dir():
            return []
        return sorted(
            p for p in self.entry_dir.iterdir()
            if p.suffix == ".pkl" and not p.name.startswith(".tmp-")
        )

    def clear(self) -> int:
        """Remove every entry (all schema namespaces); returns the count."""
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
        return removed

    def stats(self) -> CacheStats:
        """The entry count and size of the current namespace.

        Robust on a fresh or concurrently-modified cache directory: a
        missing directory or an entry deleted between listing and ``stat()``
        degrades to zeros, never raises.
        """
        total_bytes = 0
        count = 0
        for path in self._entries():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue  # deleted by a concurrent clear/GC: skip, don't crash
            count += 1
        return CacheStats(root=str(self.root), entries=count, bytes=total_bytes)

    def __repr__(self) -> str:
        return f"DiskCache({str(self.root)!r})"

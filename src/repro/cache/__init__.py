"""Persistent, content-addressed caching of compilation artefacts.

The in-memory pass-artifact LRU of :class:`repro.api.Session` dies with the
interpreter; this package adds the on-disk layer underneath it (the PyOP2
model: array-level execution plus disk-cached compiled artefacts), so
repeated ``hexcc`` / bench / experiment invocations — and the worker
processes of the parallel execution engine — skip recompilation entirely.
"""

from repro.cache.disk import CacheStats, DiskCache, default_cache_dir
from repro.cache.keys import stage_key

__all__ = [
    "CacheStats",
    "DiskCache",
    "default_cache_dir",
    "stage_key",
]

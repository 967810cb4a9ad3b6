"""Persistent, content-addressed caching of compilation artefacts.

The in-memory pass-artifact LRU of :class:`repro.api.Session` dies with the
interpreter; this package adds the on-disk layer underneath it (the PyOP2
model: array-level execution plus disk-cached compiled artefacts), so
repeated ``hexcc`` / bench / experiment invocations skip recompilation
entirely.
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    "CacheStats": "repro.cache.disk",
    "DiskCache": "repro.cache.disk",
    "default_cache_dir": "repro.cache.disk",
    "stage_key": "repro.cache.keys",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

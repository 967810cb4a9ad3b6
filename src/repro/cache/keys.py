"""Content-hash cache keys for pipeline-stage artefacts.

A key must identify everything a stage's output depends on: the program
*content* (not its object identity — two sessions never share ids; the
content is its regenerated C source, which
:meth:`repro.model.program.StencilProgram.c_source` round-trips bit-for-bit
through the front end, covering grid sizes and time steps via the
``#define`` header), the options the stage reads, the tiling strategy, the
stage's artifact schema version, the key of the upstream stage and the
compiler code itself (:func:`code_fingerprint`).
:func:`stage_key` assembles all of that; the session's pass manager
(:mod:`repro.api.session`) supplies the per-stage parts.
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache

from repro.cache.disk import SCHEMA_VERSION


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """A digest of the ``repro`` package sources, computed once per process.

    Every artefact is a pure function of (inputs, compiler code); hashing the
    code into the key means editing any pipeline module naturally invalidates
    the cache — no hand-maintained version bump, no stale artefacts (and
    stale counters) served after a code change.
    """
    import repro

    digest = hashlib.sha256()
    root = os.path.dirname(os.path.realpath(repro.__file__))
    try:
        # Every ``*.py`` file below ``root``, ordered by its path's parts (the
        # order of sorted ``pathlib`` paths, so ``a/b.py`` precedes ``a.py``);
        # each contributes its relative path, a NUL byte and its bytes.
        # ``os.walk`` and plain ``open`` do this at about two thirds of the
        # cost of ``Path.rglob`` and ``read_bytes``.
        sources: list[tuple[str, ...]] = []
        for directory, _, files in os.walk(root):
            relative = os.path.relpath(directory, root)
            parts = () if relative == os.curdir else tuple(relative.split(os.sep))
            sources.extend((*parts, name) for name in files if name.endswith(".py"))
        for parts in sorted(sources):
            digest.update(os.sep.join(parts).encode())
            digest.update(b"\0")
            with open(os.path.join(root, *parts), "rb") as handle:
                digest.update(handle.read())
    except OSError:
        # Unreadable tree (unusual packaging): fall back to the version
        # string rather than failing compilation.
        digest.update(getattr(repro, "__version__", "unknown").encode())
    return digest.hexdigest()


def stage_key(
    stage: str,
    stage_schema: int,
    strategy: str,
    parts: list[str],
    parent: str | None = None,
) -> str:
    """SHA-256 key of one pipeline stage's artifact.

    Every stage key includes the global artefact schema, the compiler code
    fingerprint, the stage name, the **stage artifact schema version** and the
    **tiling strategy name** — so a ``classical`` plan can never be served
    for a ``hybrid`` request, and an artifact layout change invalidates only
    its own stage.  ``parent`` chains the key of the upstream stage, making
    each key a content hash of the whole prefix of the pipeline that produced
    the artifact.
    """
    digest = hashlib.sha256()
    components = [
        f"schema={SCHEMA_VERSION}",
        f"code={code_fingerprint()}",
        f"stage={stage}",
        f"stage-schema={stage_schema}",
        f"strategy={strategy}",
        f"parent={parent or 'root'}",
        *parts,
    ]
    digest.update("\n".join(components).encode())
    return digest.hexdigest()



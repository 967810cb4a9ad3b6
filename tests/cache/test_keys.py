"""The compiler-code fingerprint that every cache key carries."""

from __future__ import annotations

import hashlib
from pathlib import Path

import repro
from repro.cache.keys import code_fingerprint


def test_fingerprint_of_the_repro_sources():
    """Every ``*.py`` file of the package, in the order of its relative path,
    as that path, a NUL byte and its bytes."""
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for name in sorted(str(path.relative_to(root)) for path in root.rglob("*.py")):
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update((root / name).read_bytes())
    assert code_fingerprint() == digest.hexdigest()

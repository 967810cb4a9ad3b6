"""The compiler-code fingerprint that every cache key carries."""

from __future__ import annotations

import hashlib
from pathlib import Path

import repro
from repro.cache.keys import code_fingerprint


def _rglob_digest(root: Path) -> str:
    """The fingerprint's formula as first written with ``pathlib``.

    Every ``*.py`` file below ``root`` in sorted ``Path`` order (by path
    parts), each as its relative path, a NUL byte and its bytes.  Any
    rewrite must give the same digest, or every cached artefact's key moves.
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_fingerprint_of_the_repro_sources():
    root = Path(repro.__file__).resolve().parent
    assert code_fingerprint() == _rglob_digest(root)


def test_fingerprint_orders_files_by_path_parts(tmp_path, monkeypatch):
    """``a.py`` and ``a-b.py`` sort before ``a/b.py`` as strings, after it by
    parts; ``a_b.py`` sorts after it either way."""
    package = tmp_path / "pkg"
    names = ["__init__.py", "a/b.py", "a/c/d.py", "a_b.py", "a.py", "a-b.py"]
    for index, name in enumerate(names):
        path = package / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"VALUE = {index}\n")
    (package / "a" / "notes.txt").write_text("not a source\n")
    (package / "a" / "b.pyc").write_bytes(b"\0")
    by_parts = [str(p.relative_to(package)) for p in sorted(package.rglob("*.py"))]
    assert sorted(names) != by_parts
    assert by_parts.index("a/b.py") < by_parts.index("a_b.py")

    monkeypatch.setattr(repro, "__file__", str(package / "__init__.py"))
    # Past the once-per-process cache, on the temporary package.
    assert code_fingerprint.__wrapped__() == _rglob_digest(package)

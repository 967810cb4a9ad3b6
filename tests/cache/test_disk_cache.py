"""The persistent on-disk compile cache: round trips, robustness, layering."""

from __future__ import annotations

import pickle
import pickletools

import pytest

from repro.cache import DiskCache
from repro.cache.disk import SCHEMA_VERSION, _ENVELOPE_KIND
from repro.api import Session
from repro.gpu.device import list_devices
from repro.stencils import get_stencil, list_stencils
from repro.tiling.validate import validate_hybrid_tiling


@pytest.fixture
def cache(tmp_path):
    return DiskCache(tmp_path / "hexcc")


def test_round_trip(cache):
    cache.put("ab12", {"value": [1, 2, 3]})
    assert cache.get("ab12") == {"value": [1, 2, 3]}
    assert cache.stats().entries == 1
    assert (cache.hits, cache.misses, cache.stores) == (1, 0, 1)


def test_missing_key_is_a_miss(cache):
    assert cache.get("dead") is None
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 0)


def test_rejects_non_hex_keys(cache):
    with pytest.raises(ValueError):
        cache.put("../escape", 1)
    with pytest.raises(ValueError):
        cache.get("UPPER")


def test_corrupt_entry_is_ignored_and_removed(cache):
    cache.put("ab12", "payload")
    path = cache._path("ab12")
    path.write_bytes(b"not a pickle at all")
    assert cache.get("ab12") is None
    assert not path.exists()
    # A later put/get works again.
    cache.put("ab12", "fresh")
    assert cache.get("ab12") == "fresh"


def test_stale_schema_version_is_ignored_not_fatal(cache):
    cache.put("ab12", "payload")
    path = cache._path("ab12")
    path.write_bytes(
        pickle.dumps((_ENVELOPE_KIND, SCHEMA_VERSION + 1, "from the future"))
    )
    assert cache.get("ab12") is None
    assert not path.exists()


def test_foreign_envelope_kind_is_ignored(cache):
    cache.put("ab12", "payload")
    cache._path("ab12").write_bytes(pickle.dumps(("something-else", 1, "x")))
    assert cache.get("ab12") is None


def test_clear_removes_entries_and_stats(cache):
    cache.put("ab12", 1)
    cache.put("cd34", 2)
    assert cache.clear() == 2
    assert cache.stats().entries == 0
    assert cache.stats().bytes == 0


def test_cache_keys_depend_on_content_not_identity(tmp_path):
    """Two content-identical programs share every disk entry."""
    cache = DiskCache(tmp_path / "hexcc")
    a = get_stencil("jacobi_2d", sizes=(16, 16), steps=4)
    b = get_stencil("jacobi_2d", sizes=(16, 16), steps=4)
    assert a is not b
    Session(disk_cache=cache).run(a)
    stores = cache.stores
    Session(disk_cache=cache).run(b)
    assert cache.stores == stores  # all passes served from the shared entries
    assert cache.hits == stores


def test_cache_keys_vary_with_program_content(tmp_path):
    cache = DiskCache(tmp_path / "hexcc")
    Session(disk_cache=cache).run(get_stencil("jacobi_2d", sizes=(16, 16), steps=4))
    stores = cache.stores
    # A different grid size is different program content: nothing is shared.
    Session(disk_cache=cache).run(get_stencil("jacobi_2d", sizes=(18, 16), steps=4))
    assert cache.stores == 2 * stores


def test_compiler_disk_layer_round_trip(tmp_path):
    cache = DiskCache(tmp_path / "hexcc")
    program = get_stencil("jacobi_2d", sizes=(16, 16), steps=4)
    first = Session(disk_cache=cache).run(program)
    # Pass-granular layering: canonicalize, tiling, memory and codegen each
    # store their artifact under their own chained key.
    assert cache.stores == 4

    # A fresh process would see the same thing a fresh session does: the
    # entries are fetched, unpickled and fully usable.
    fresh = Session(disk_cache=DiskCache(tmp_path / "hexcc"))
    again = fresh.run(get_stencil("jacobi_2d", sizes=(16, 16), steps=4))
    assert [event.source for event in again.events][1:] == ["disk"] * 4
    assert again.artifact("codegen") is not first.artifact("codegen")
    assert again.artifact("codegen").cuda_source == first.artifact("codegen").cuda_source
    assert validate_hybrid_tiling(again.artifact("tiling").tiling).ok
    again.simulate_and_check()


def test_compiler_survives_corrupt_disk_entry(tmp_path):
    cache = DiskCache(tmp_path / "hexcc")
    program = get_stencil("jacobi_2d", sizes=(16, 16), steps=4)
    Session(disk_cache=cache).run(program)
    for path in cache._entries():
        path.write_bytes(b"\x80corrupted")
    run = Session(disk_cache=cache).run(
        get_stencil("jacobi_2d", sizes=(16, 16), steps=4)
    )
    assert validate_hybrid_tiling(run.artifact("tiling").tiling).ok


class _StageRecordingCache(DiskCache):
    """A disk cache that remembers which stage wrote which key."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.keys: list[tuple[str | None, str]] = []

    def put(self, key: str, payload: object, stage: str | None = None) -> None:
        super().put(key, payload, stage)
        self.keys.append((stage, key))


def _pickled_strings(blob: bytes) -> set[str]:
    """Every string a pickle pushes, module names of its globals included."""
    return {arg for _, arg, _ in pickletools.genops(blob) if isinstance(arg, str)}


@pytest.mark.parametrize("device", list_devices(), ids=lambda device: device.name)
def test_compile_path_pickles_refer_to_no_numpy_global(device, tmp_path):
    """A warm compile unpickles these five artefacts, so NumPy stays unloaded."""
    cache = _StageRecordingCache(tmp_path / "hexcc")
    session = Session(device=device, disk_cache=cache)
    for name in list_stencils():
        session.run(get_stencil(name), stop_after="analysis")
    stages = {stage for stage, _ in cache.keys}
    assert stages == {"canonicalize", "tiling", "memory", "codegen", "analysis"}
    for stage, key in cache.keys:
        strings = _pickled_strings(cache._path(key).read_bytes())
        numpy = sorted(text for text in strings if text.split(".")[0] == "numpy")
        assert not numpy, (stage, numpy)

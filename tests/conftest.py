"""Shared fixtures for the test suite: small stencil programs and tilings."""

from __future__ import annotations

import pytest

from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.hybrid import HybridTiling, TileSizes


@pytest.fixture(autouse=True)
def _isolated_hexcc_cache(tmp_path, monkeypatch):
    """Point the persistent compile cache at a per-test directory.

    CLI entry points open ``DiskCache()`` and write run history and crash
    reports under the same directory; without this fixture the test suite
    would read and write the developer's real ``~/.cache/hexcc``.
    """
    monkeypatch.setenv("HEXCC_CACHE_DIR", str(tmp_path / "hexcc-cache"))


@pytest.fixture
def small_jacobi_2d():
    """A Jacobi 2D program small enough for exhaustive validation."""
    return get_stencil("jacobi_2d", sizes=(20, 18), steps=10)


@pytest.fixture
def small_heat_3d():
    return get_stencil("heat_3d", sizes=(12, 10, 10), steps=6)


@pytest.fixture
def small_fdtd_2d():
    return get_stencil("fdtd_2d", sizes=(16, 14), steps=8)


@pytest.fixture
def jacobi_canonical(small_jacobi_2d):
    return canonicalize(small_jacobi_2d)


@pytest.fixture
def jacobi_tiling(jacobi_canonical):
    return HybridTiling(jacobi_canonical, TileSizes.of(2, 3, 6))

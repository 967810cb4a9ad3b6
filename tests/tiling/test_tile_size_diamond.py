"""Unit tests for tile-size selection (§3.7) and the diamond-tiling comparison."""

import pytest

from repro._record import replace
from repro.gpu.device import GTX470
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.diamond import DiamondTiling
from repro.tiling.hybrid import TileSizes
from repro.tiling.tile_size import TileSizeModel, select_tile_sizes


@pytest.fixture(scope="module")
def heat3d_canonical():
    return canonicalize(get_stencil("heat_3d", sizes=(64, 64, 64), steps=16))


def test_iteration_count_matches_closed_form(heat3d_canonical):
    model = TileSizeModel(heat3d_canonical)
    for sizes in [TileSizes.of(2, 7, 10, 32), TileSizes.of(1, 3, 8, 16)]:
        assert model.estimate(sizes).iterations == model.closed_form_iterations_3d(sizes)


def test_closed_form_guard_rails(heat3d_canonical):
    model = TileSizeModel(heat3d_canonical)
    with pytest.raises(ValueError):
        model.closed_form_iterations_3d(TileSizes.of(2, 7, 10))
    model_2d = TileSizeModel(canonicalize(get_stencil("heat_2d", sizes=(64, 64), steps=8)))
    with pytest.raises(ValueError):
        model_2d.closed_form_iterations_3d(TileSizes.of(2, 7, 10))


def test_paper_configuration_fits_shared_memory(heat3d_canonical):
    """The Table 4 configuration (h=2, w=(7,10,32)) must fit in 48 KB."""
    model = TileSizeModel(heat3d_canonical)
    estimate = model.estimate(TileSizes.of(2, 7, 10, 32))
    assert estimate.shared_memory_bytes <= 48 * 1024
    assert estimate.load_to_compute < 1.0   # time tiling pays off


def test_inter_tile_reuse_reduces_loads(heat3d_canonical):
    model = TileSizeModel(heat3d_canonical)
    sizes = TileSizes.of(2, 7, 10, 32)
    with_reuse = model.estimate(sizes, inter_tile_reuse=True).loads
    without = model.estimate(sizes, inter_tile_reuse=False).loads
    assert with_reuse < without


def test_larger_tiles_improve_load_to_compute(heat3d_canonical):
    model = TileSizeModel(heat3d_canonical)
    small = model.estimate(TileSizes.of(1, 1, 2, 32))
    large = model.estimate(TileSizes.of(2, 7, 10, 32))
    assert large.load_to_compute < small.load_to_compute


def test_tile_size_search_respects_constraints(heat3d_canonical):
    best = select_tile_sizes(heat3d_canonical, GTX470)
    assert best.shared_memory_bytes <= 48 * 1024
    assert best.sizes.widths[-1] % 32 == 0
    model = TileSizeModel(heat3d_canonical)
    assert best.sizes.w0 >= model.cone.delta0  # width satisfies condition (1)


def test_tile_size_search_2d():
    canonical = canonicalize(get_stencil("heat_2d", sizes=(256, 256), steps=32))
    best = select_tile_sizes(canonical, GTX470)
    assert best.iterations > 0
    assert best.sizes.widths[-1] % 32 == 0


def test_tile_size_search_infeasible_limit(heat3d_canonical):
    tiny = replace(GTX470, shared_memory_per_sm=64)
    # Every one of the 17 x 14 x 14 x 3 grid points is counted once.
    with pytest.raises(ValueError, match="shared_memory_overflow=9996, legality=0"):
        select_tile_sizes(heat3d_canonical, tiny)


# -- diamond tiling -----------------------------------------------------------------------


def test_diamond_tiles_have_varying_point_counts():
    """The contrast the paper draws in Section 2: diamond tile counts vary."""
    tiling = DiamondTiling(5)
    counts = set(tiling.interior_tile_counts(40, 40))
    assert len(counts) > 1

    # Hexagonal full tiles, by construction, all have the same count — checked
    # in test_hex_schedule/test_properties; here we just confirm the diamond
    # peak is narrow and not adjustable.
    assert tiling.peak_width() <= 2


def test_diamond_assignment_and_wavefront():
    tiling = DiamondTiling(4)
    assignment = tiling.assign(3, 5)
    assert tiling.wavefront(assignment) == assignment.wave - assignment.position


def test_diamond_requires_unit_slopes():
    from repro.tiling.cone import DependenceCone
    from fractions import Fraction

    with pytest.raises(ValueError):
        DiamondTiling(4, DependenceCone(Fraction(2), Fraction(1)))
    with pytest.raises(ValueError):
        DiamondTiling(0)

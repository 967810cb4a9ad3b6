"""Unit tests for the dependence cone and the hexagonal tile shape."""

import pickle
from fractions import Fraction

import numpy as np
import pytest
from polyhedral import lp_oracle

from repro.api import Session
from repro.experiments import figure3_dependence_cone
from repro.gpu.device import list_devices
from repro.stencils import get_stencil, list_stencils
from repro.tiling.cone import DependenceCone
from repro.tiling.hexagon import HexagonalTileShape, minimal_width


def test_cone_from_symmetric_stencil():
    cone = DependenceCone.from_distance_vectors([(1, 1), (1, -1), (1, 0)])
    assert cone.delta0 == 1
    assert cone.delta1 == 1


def test_cone_paper_example():
    """Section 3.3.2: A[t][i] = f(A[t-2][i-2], A[t-1][i+2]) gives δ0=1, δ1=2."""
    cone = DependenceCone.from_distance_vectors([(1, -2), (2, 2)])
    assert cone.delta0 == 1
    assert cone.delta1 == 2


def test_cone_lp_agrees_with_direct_computation():
    vectors = [(1, -2), (2, 2), (3, 1), (2, -3)]
    assert DependenceCone.from_distance_vectors(vectors) == lp_oracle.cone_lp(vectors)


def test_figure3_cone_agrees_with_the_lp():
    """Figure 3's slopes are the optima of the paper's LP on its vectors."""
    data = figure3_dependence_cone()
    cone = lp_oracle.cone_lp(data["distance_vectors"])
    assert (data["delta0"], data["delta1"]) == (cone.delta0, cone.delta1)


def test_cone_fractional_slopes():
    cone = DependenceCone.from_distance_vectors([(2, 1), (2, -1)])
    assert cone.delta0 == Fraction(1, 2)
    assert cone.delta1 == Fraction(1, 2)


def test_cone_rejects_invalid_distances():
    with pytest.raises(ValueError):
        DependenceCone.from_distance_vectors([(0, 1)])
    with pytest.raises(ValueError):
        DependenceCone.from_distance_vectors([])
    with pytest.raises(ValueError):
        DependenceCone(Fraction(-1), Fraction(0))


def test_minimal_width_paper_example():
    """The paper derives w0 >= 1 for δ0=1, δ1=2, h=2."""
    assert minimal_width(Fraction(1), Fraction(2), 2) == 1
    assert minimal_width(Fraction(1), Fraction(1), 2) == 0


def test_figure4_tile_shape():
    """Figure 4: h=2, w0=3, unit slopes."""
    shape = HexagonalTileShape(DependenceCone(Fraction(1), Fraction(1)), 2, 3)
    assert shape.time_period == 6
    assert shape.space_period == 12
    assert shape.count() == 36
    assert shape.peak_width() == 4          # w0 + 1
    assert shape.max_width() == 8           # w0 + 1 + ⌊δ0h⌋ + ⌊δ1h⌋
    assert shape.row_width(0) == 4
    assert shape.row_width(2) == 8


def test_tile_points_satisfy_constraints():
    shape = HexagonalTileShape(DependenceCone(Fraction(1), Fraction(2)), 2, 1)
    points = list(shape.points())
    assert len(points) == shape.count()
    for a, b in points:
        assert shape.contains(a, b)
        assert 0 <= a <= 2 * shape.height + 1


def test_width_below_minimum_rejected():
    with pytest.raises(ValueError):
        HexagonalTileShape(DependenceCone(Fraction(1), Fraction(2)), 2, 0)


def test_peak_width_is_adjustable():
    """Unlike diamond tiles, the peak width scales with w0 (Section 2)."""
    cone = DependenceCone(Fraction(1), Fraction(1))
    narrow = HexagonalTileShape(cone, 2, 1)
    wide = HexagonalTileShape(cone, 2, 7)
    assert wide.peak_width() > narrow.peak_width()
    assert wide.peak_width() == 8


def test_render_ascii_shape():
    shape = HexagonalTileShape(DependenceCone(Fraction(1), Fraction(1)), 1, 2)
    art = shape.render()
    assert art.count("#") == shape.count()


def test_pointwise_cone_gives_rectangles():
    shape = HexagonalTileShape(DependenceCone(Fraction(0), Fraction(0)), 2, 3)
    widths = {shape.row_width(a) for a in range(shape.time_period)}
    assert widths == {4}
    assert shape.count() == 6 * 4


@pytest.mark.parametrize("device", list_devices(), ids=lambda device: device.name)
def test_unpickled_shape_recomputes_its_row_bounds(device):
    """A loaded shape has the row bounds of the shape that was pickled."""
    session = Session(device=device)
    for name in list_stencils():
        plan = session.run(get_stencil(name), stop_after="tiling").artifact("tiling")
        shape = plan.tiling.shape
        (_, _), (b_min, b_max) = shape.bounding_box()
        a, b = np.meshgrid(
            np.arange(-1, 2 * shape.height + 3), np.arange(b_min - 1, b_max + 2)
        )
        expected = shape.contains_batch(a, b)  # fills the cached bounds first
        clone = pickle.loads(pickle.dumps(shape))
        assert np.array_equal(clone.contains_batch(a, b), expected)
        for row in range(-1, 2 * shape.height + 3):
            assert clone.row_range(row) == shape.row_range(row)

"""Unit tests for the oracle's convex integer sets."""

import pytest
from polyhedral.lp_oracle import BasicSet

from repro.polyhedral.affine import LinearExpr
from repro.polyhedral.constraint import Constraint


@pytest.fixture
def triangle():
    """The triangle 0 <= t <= i <= 5."""
    t, i = LinearExpr.var("t"), LinearExpr.var("i")
    return BasicSet(
        ("t", "i"),
        [Constraint.ge(t, 0), Constraint.ge(i - t, 0), Constraint.le(i, 5)],
    )


def test_membership(triangle):
    assert (0, 0) in triangle
    assert (2, 5) in triangle
    assert (3, 2) not in triangle
    assert (-1, 0) not in triangle


def test_count_and_enumeration(triangle):
    points = list(triangle.points())
    assert len(points) == triangle.count() == 21
    assert all(triangle.contains(p) for p in points)


def test_bounding_box(triangle):
    assert triangle.bounding_box() == [(0, 5), (0, 5)]


def test_dim_min_max(triangle):
    assert triangle.dim_min("t") == 0
    assert triangle.dim_max("t") == 5
    assert triangle.dim_max("i") == 5


def test_intersect():
    a = BasicSet.from_bounds(("x",), {"x": (0, 10)})
    b = BasicSet.from_bounds(("x",), {"x": (5, 20)})
    assert a.intersect(b).count() == 6


def test_empty_detection():
    empty = BasicSet.from_bounds(("x",), {"x": (3, 1)})
    assert empty.is_empty()
    assert BasicSet.empty(("x",)).is_empty()
    assert not BasicSet.from_bounds(("x",), {"x": (0, 0)}).is_empty()


def test_integer_emptiness_with_rational_relaxation_nonempty():
    """1 <= 2x <= 1 has the rational solution 1/2 but no integer point."""
    x = LinearExpr.var("x")
    gap = BasicSet(("x",), [Constraint.ge(x * 2, 1), Constraint.le(x * 2, 1)])
    assert not gap.is_rationally_empty()
    assert gap.is_empty()


def test_projection_drops_dimension(triangle):
    projected = triangle.project_out(["i"])
    assert projected.dims == ("t",)
    assert projected.bounding_box() == [(0, 5)]


def test_project_onto(triangle):
    projected = triangle.project_onto(["i"])
    assert projected.dims == ("i",)
    assert projected.count() == 6


def test_translate(triangle):
    shifted = triangle.translate({"t": 10, "i": 10})
    assert (10, 10) in shifted
    assert (0, 0) not in shifted
    assert shifted.count() == triangle.count()


def test_universe_and_box_constructors():
    box = BasicSet.box(("x", "y"), [0, 0], [2, 3])
    assert box.count() == 12
    assert BasicSet.universe(("x", "y")).contains((100, -100))


def test_unknown_dimension_rejected():
    with pytest.raises(ValueError):
        BasicSet(("x",), [Constraint.ge(LinearExpr.var("z"), 0)])


def test_gist_removes_redundant_constraint():
    x = LinearExpr.var("x")
    redundant = BasicSet(
        ("x",), [Constraint.ge(x, 0), Constraint.ge(x, -5), Constraint.le(x, 3)]
    )
    simplified = redundant.gist()
    assert len(simplified.constraints) == 2
    assert simplified.count() == redundant.count()

"""Unit tests for affine maps and quasi-affine expressions."""

from fractions import Fraction

import pytest

from repro.polyhedral.affine import LinearExpr
from repro.polyhedral.basic_set import BasicSet
from repro.polyhedral.imap import AffineMap
from repro.polyhedral.quasi_affine import (
    QFloorDiv,
    QMod,
    affine_combination,
    floor_of_rational_affine,
    mod_of_rational_affine,
    qconst,
    qvar,
)
from repro.polyhedral.space import Space


# -- AffineMap -------------------------------------------------------------------------


def test_identity_and_offsets():
    space = Space(["i", "j"])
    identity = AffineMap.identity(space)
    assert identity.apply_int_point((3, 4)) == (3, 4)
    shifted = AffineMap.from_offsets(space, Space(["a", "b"]), ["i", "j"], [1, -1])
    assert shifted.apply_int_point((3, 4)) == (4, 3)


def test_compose():
    space = Space(["i"])
    plus_one = AffineMap(space, space, [LinearExpr.var("i") + 1])
    times_two = AffineMap(space, space, [LinearExpr.var("i") * 2])
    composed = times_two.compose(plus_one)   # 2 * (i + 1)
    assert composed.apply_int_point((3,)) == (8,)


def test_apply_set_image():
    space = Space(["i"])
    target = Space(["a"])
    shift = AffineMap(space, target, [LinearExpr.var("i") + 5])
    domain = BasicSet.from_bounds(space, {"i": (0, 3)})
    image = shift.apply_set(domain)
    assert sorted(p[0] for p in image.points()) == [5, 6, 7, 8]


def test_image_box_interval_arithmetic():
    space = Space(["i", "j"])
    access = AffineMap.from_offsets(space, Space(["a", "b"]), ["i", "j"], [-1, 2])
    box = access.image_box({"i": (1, 4), "j": (0, 3)})
    assert box == [(0, 3), (2, 5)]


def test_non_integral_image_raises():
    space = Space(["i"])
    half = AffineMap(space, Space(["a"]), [LinearExpr.var("i") * Fraction(1, 2)])
    with pytest.raises(ValueError):
        half.apply_int_point((3,))


def test_arity_mismatch_rejected():
    space = Space(["i"])
    with pytest.raises(ValueError):
        AffineMap(space, Space(["a", "b"]), [LinearExpr.var("i")])


# -- quasi-affine expressions -----------------------------------------------------------


def test_floordiv_matches_python_semantics():
    expr = QFloorDiv(qvar("t") + qconst(3), 6)
    for t in range(-20, 20):
        assert expr.evaluate({"t": t}) == (t + 3) // 6


def test_mod_is_always_non_negative():
    expr = QMod(qvar("t"), 5)
    for t in range(-20, 20):
        value = expr.evaluate({"t": t})
        assert 0 <= value < 5
        assert value == t % 5


def test_operator_sugar():
    expr = (qvar("x") * 3 - 2) % 7
    assert expr.evaluate({"x": 4}) == 3


def test_to_c_contains_floord_and_wrap():
    expr = QFloorDiv(qvar("t"), 4)
    assert "floord" in expr.to_c()
    expr = QMod(qvar("t"), 4)
    assert "%" in expr.to_c()


def test_affine_combination_scaling():
    expr, scale = affine_combination({"s": Fraction(1, 2), "u": 1}, 0)
    assert scale == 2
    assert expr.evaluate({"s": 3, "u": 5}) == 2 * (Fraction(3, 2) + 5)


def test_floor_of_rational_affine():
    expr = floor_of_rational_affine({"s": 1, "u": Fraction(1, 2)}, 0, 3)
    for s in range(-5, 6):
        for u in range(0, 6):
            expected = (2 * s + u) // 6
            assert expr.evaluate({"s": s, "u": u}) == expected


def test_mod_of_rational_affine_preserves_period():
    expr = mod_of_rational_affine({"s": 1}, 0, 4)
    assert expr.evaluate({"s": 9}) == 1
    assert expr.evaluate({"s": -1}) == 3


def test_variables_tracking():
    expr = QFloorDiv(qvar("a") + qvar("b"), 2)
    assert expr.variables() == {"a", "b"}

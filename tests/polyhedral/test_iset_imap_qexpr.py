"""Unit tests for quasi-affine expressions."""

from fractions import Fraction

from repro.polyhedral.quasi_affine import (
    QFloorDiv,
    QMod,
    affine_combination,
    floor_of_rational_affine,
    mod_of_rational_affine,
    qconst,
    qvar,
)


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

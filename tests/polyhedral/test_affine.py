"""Unit tests for affine expressions with rational coefficients."""

from fractions import Fraction

import pytest
from polyhedral import lp_oracle

from repro.polyhedral.affine import LinearExpr


def test_variable_and_constant_construction():
    expr = LinearExpr.var("x", 3) + LinearExpr.const(5)
    assert lp_oracle.coefficient(expr, "x") == 3
    assert expr.constant == 5
    assert lp_oracle.variables(expr) == {"x"}


def test_zero_coefficients_are_dropped():
    expr = LinearExpr.var("x") - LinearExpr.var("x")
    assert lp_oracle.is_zero(expr)
    assert lp_oracle.variables(expr) == set()


def test_arithmetic_combination():
    x = LinearExpr.var("x")
    y = LinearExpr.var("y")
    expr = 2 * x - y / 2 + 7
    assert expr.coeffs == {"x": 2, "y": Fraction(-1, 2)}
    assert expr.constant == 7


def test_evaluate():
    expr = LinearExpr.var("x", Fraction(1, 2)) + LinearExpr.var("y", -1) + 3
    assert lp_oracle.evaluate(expr, {"x": 4, "y": 1}) == 4


def test_evaluate_missing_variable_raises():
    expr = LinearExpr.var("x")
    with pytest.raises(KeyError):
        lp_oracle.evaluate(expr, {"y": 1})


def test_substitute_with_expression():
    expr = LinearExpr.var("x", 2) + 1
    substituted = lp_oracle.substitute(expr, {"x": LinearExpr.var("y") + 3})
    assert substituted.coeffs == {"y": 2}
    assert substituted.constant == 7


def test_rename():
    expr = LinearExpr.var("x") + LinearExpr.var("y")
    renamed = lp_oracle.rename(expr, {"x": "a"})
    assert lp_oracle.variables(renamed) == {"a", "y"}


def test_scaled_to_integers():
    expr = LinearExpr.var("x", Fraction(1, 3)) + Fraction(1, 2)
    scaled = expr.scaled_to_integers()
    assert scaled.coeffs == {"x": 2}
    assert scaled.constant == 3


def test_integer_coeffs_in_order():
    expr = LinearExpr.var("x", Fraction(2, 3)) - LinearExpr.var("z") + 1
    coeffs, constant = lp_oracle.integer_coeffs(expr, ["x", "y", "z"])
    assert coeffs == [2, 0, -3]
    assert constant == 3


def test_equality_and_hash():
    a = LinearExpr.var("x") + 1
    b = LinearExpr({"x": 1}, 1)
    assert a == b
    assert hash(a) == hash(b)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        LinearExpr.var("x") / 0


def test_str_rendering_mentions_variables():
    text = str(LinearExpr.var("x", -2) + 5)
    assert "x" in text and "5" in text

"""Unit tests for affine constraints."""

from polyhedral import lp_oracle
from polyhedral.lp_oracle import satisfied

from repro.polyhedral.affine import LinearExpr
from repro.polyhedral.constraint import Constraint


def test_ge_le_constructors_are_consistent():
    x = LinearExpr.var("x")
    assert satisfied(Constraint.ge(x, 3), {"x": 3})
    assert not satisfied(Constraint.ge(x, 3), {"x": 2})
    assert satisfied(Constraint.le(x, 3), {"x": 3})
    assert not satisfied(Constraint.le(x, 3), {"x": 4})


def test_strict_inequalities_over_integers():
    x = LinearExpr.var("x")
    assert not satisfied(lp_oracle.gt(x, 3), {"x": 3})
    assert satisfied(lp_oracle.gt(x, 3), {"x": 4})
    assert satisfied(lp_oracle.lt(x, 3), {"x": 2})


def test_equality():
    x = LinearExpr.var("x")
    y = LinearExpr.var("y")
    constraint = lp_oracle.eq(x + y, 4)
    assert satisfied(constraint, {"x": 1, "y": 3})
    assert not satisfied(constraint, {"x": 1, "y": 4})


def test_trivially_true_and_false():
    assert lp_oracle.is_trivially_true(Constraint.ge(LinearExpr.const(1), 0))
    assert lp_oracle.is_trivially_false(Constraint.ge(LinearExpr.const(-1), 0))
    assert not lp_oracle.is_trivially_true(Constraint.ge(LinearExpr.var("x"), 0))


def test_negation_of_inequality():
    x = LinearExpr.var("x")
    (negated,) = lp_oracle.negated(Constraint.ge(x, 5))  # x <= 4
    assert satisfied(negated, {"x": 4})
    assert not satisfied(negated, {"x": 5})


def test_negation_of_equality_gives_two_pieces():
    x = LinearExpr.var("x")
    pieces = lp_oracle.negated(lp_oracle.eq(x, 5))
    assert len(pieces) == 2
    assert any(satisfied(p, {"x": 4}) for p in pieces)
    assert any(satisfied(p, {"x": 6}) for p in pieces)
    assert not any(satisfied(p, {"x": 5}) for p in pieces)


def test_normalized_divides_by_gcd():
    x = LinearExpr.var("x")
    constraint = lp_oracle.normalized(Constraint.ge(x * 4, 8))
    assert constraint.expr.coeffs == {"x": 1}
    assert constraint.expr.constant == -2


def test_substitute():
    x = LinearExpr.var("x")
    constraint = lp_oracle.substitute_constraint(
        Constraint.ge(x, 3), {"x": LinearExpr.var("y") * 2}
    )
    assert satisfied(constraint, {"y": 2})
    assert not satisfied(constraint, {"y": 1})

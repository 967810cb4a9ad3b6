"""Unit tests for the oracle's exact rational simplex."""

from fractions import Fraction

from polyhedral.lp_oracle import LPStatus, eq, lp_feasible, lp_maximize, lp_minimize

from repro.polyhedral.affine import LinearExpr
from repro.polyhedral.constraint import Constraint


def _box_constraints():
    x = LinearExpr.var("x")
    y = LinearExpr.var("y")
    return [
        Constraint.ge(x, 0),
        Constraint.le(x, 4),
        Constraint.ge(y, 1),
        Constraint.le(y, 3),
    ]


def test_minimize_over_box():
    result = lp_minimize(LinearExpr.var("x") + LinearExpr.var("y"), _box_constraints())
    assert result.status is LPStatus.OPTIMAL
    assert result.value == 1


def test_maximize_over_box():
    result = lp_maximize(LinearExpr.var("x") + LinearExpr.var("y"), _box_constraints())
    assert result.status is LPStatus.OPTIMAL
    assert result.value == 7


def test_rational_optimum_is_exact():
    x = LinearExpr.var("x")
    constraints = [Constraint.ge(x * 3, 1), Constraint.le(x * 3, 2)]
    result = lp_minimize(x, constraints)
    assert result.value == Fraction(1, 3)
    result = lp_maximize(x, constraints)
    assert result.value == Fraction(2, 3)


def test_negative_variables_allowed():
    x = LinearExpr.var("x")
    result = lp_minimize(x, [Constraint.ge(x, -7), Constraint.le(x, -2)])
    assert result.status is LPStatus.OPTIMAL
    assert result.value == -7


def test_infeasible_system():
    x = LinearExpr.var("x")
    result = lp_minimize(x, [Constraint.ge(x, 3), Constraint.le(x, 1)])
    assert result.status is LPStatus.INFEASIBLE
    assert not lp_feasible([Constraint.ge(x, 3), Constraint.le(x, 1)])


def test_unbounded_problem():
    x = LinearExpr.var("x")
    result = lp_minimize(x, [Constraint.le(x, 10)])
    assert result.status is LPStatus.UNBOUNDED


def test_equality_constraints():
    x = LinearExpr.var("x")
    y = LinearExpr.var("y")
    constraints = [eq(x + y, 10), Constraint.ge(x, 0), Constraint.ge(y, 0)]
    result = lp_maximize(x, constraints)
    assert result.value == 10
    result = lp_minimize(x, constraints)
    assert result.value == 0


def test_solution_point_is_reported():
    x = LinearExpr.var("x")
    y = LinearExpr.var("y")
    result = lp_minimize(x + y, _box_constraints())
    assert result.point is not None
    assert result.point["x"] == 0
    assert result.point["y"] == 1


def test_dependence_slope_lp_like_problem():
    """The δ-computation LP of Section 3.3.2 on the paper's example."""
    delta = LinearExpr.var("delta")
    constraints = [
        Constraint.ge(delta, 0),
        Constraint.ge(delta * 1 - (-2), 0),   # distance (1, -2)
        Constraint.ge(delta * 2 - 2, 0),      # distance (2, 2)
    ]
    result = lp_minimize(delta, constraints)
    assert result.value == 1

"""Affine constraints (equalities and inequalities).

A constraint is stored in the canonical isl form ``expr >= 0`` (inequality)
or ``expr == 0`` (equality).  Helper constructors build constraints from the
more natural comparison forms used throughout the tiling code.
"""

from __future__ import annotations

from repro._record import dataclass
from repro.polyhedral.affine import LinearExpr, Rational


@dataclass(frozen=True)
class Constraint:
    """An affine constraint ``expr >= 0`` or ``expr == 0``."""

    expr: LinearExpr
    is_equality: bool = False

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def ge(lhs: LinearExpr | Rational, rhs: LinearExpr | Rational) -> "Constraint":
        """Constraint ``lhs >= rhs``."""
        return Constraint(_coerce(lhs) - _coerce(rhs), is_equality=False)

    @staticmethod
    def le(lhs: LinearExpr | Rational, rhs: LinearExpr | Rational) -> "Constraint":
        """Constraint ``lhs <= rhs``."""
        return Constraint(_coerce(rhs) - _coerce(lhs), is_equality=False)

    def __str__(self) -> str:
        op = "=" if self.is_equality else ">="
        return f"{self.expr} {op} 0"


def _coerce(value: LinearExpr | Rational) -> LinearExpr:
    if isinstance(value, LinearExpr):
        return value
    return LinearExpr.const(value)

"""Polyhedral substrate: exact rational affine sets, maps and LP.

This subpackage plays the role that isl [Verdoolaege 2010] plays for the
original implementation.  It provides only what the hybrid tiling algorithm
needs, but provides it exactly (all arithmetic uses :class:`fractions.Fraction`
so no floating point rounding can corrupt a schedule):

* :class:`Space` — named integer dimensions.
* :class:`LinearExpr` — affine expressions with rational coefficients.
* :class:`Constraint` — affine equalities and inequalities.
* :class:`BasicSet` — convex integer sets with membership tests,
  intersection, projection, bounding boxes, enumeration and exact point
  counting.
* :class:`AffineMap` — affine maps used for access relations and schedules.
* :class:`QExpr` and friends — quasi-affine expression trees (floor-division
  and modulo) used to express tile schedules and to emit C/CUDA code.
* :func:`lp_minimize` / :func:`lp_maximize` — exact rational simplex.
"""

from repro.polyhedral.space import Space
from repro.polyhedral.affine import LinearExpr
from repro.polyhedral.constraint import Constraint
from repro.polyhedral.basic_set import BasicSet
from repro.polyhedral.imap import AffineMap
from repro.polyhedral.lp import LPResult, LPStatus, lp_maximize, lp_minimize
from repro.polyhedral.quasi_affine import (
    QAdd,
    QConst,
    QExpr,
    QFloorDiv,
    QMod,
    QMul,
    QSub,
    QVar,
    qconst,
    qvar,
)

__all__ = [
    "Space",
    "LinearExpr",
    "Constraint",
    "BasicSet",
    "AffineMap",
    "LPResult",
    "LPStatus",
    "lp_maximize",
    "lp_minimize",
    "QExpr",
    "QVar",
    "QConst",
    "QAdd",
    "QSub",
    "QMul",
    "QFloorDiv",
    "QMod",
    "qvar",
    "qconst",
]

"""Polyhedral substrate: exact affine expressions, constraints and schedules.

This subpackage plays the role that isl [Verdoolaege 2010] plays for the
original implementation.  It provides only what the hybrid tiling algorithm
needs, but provides it exactly (all arithmetic uses :class:`fractions.Fraction`
so no floating point rounding can corrupt a schedule):

* :class:`LinearExpr` — affine expressions with rational coefficients.
* :class:`Constraint` — affine constraints; the hexagonal tile shape is a
  conjunction of them, printed as membership guards in the CUDA code.
* :class:`QExpr` and friends — quasi-affine expression trees (floor-division
  and modulo) used to express tile schedules and to emit C/CUDA code.

Statement domains are boxes (:func:`repro.model.preprocess.statement_boxes`),
so no integer-set or LP machinery is needed to enumerate them.
"""

from repro.polyhedral.affine import LinearExpr
from repro.polyhedral.constraint import Constraint
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
    "LinearExpr",
    "Constraint",
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

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

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    "LinearExpr": "repro.polyhedral.affine",
    "Constraint": "repro.polyhedral.constraint",
    "QExpr": "repro.polyhedral.quasi_affine",
    "QVar": "repro.polyhedral.quasi_affine",
    "QConst": "repro.polyhedral.quasi_affine",
    "QAdd": "repro.polyhedral.quasi_affine",
    "QSub": "repro.polyhedral.quasi_affine",
    "QMul": "repro.polyhedral.quasi_affine",
    "QFloorDiv": "repro.polyhedral.quasi_affine",
    "QMod": "repro.polyhedral.quasi_affine",
    "qvar": "repro.polyhedral.quasi_affine",
    "qconst": "repro.polyhedral.quasi_affine",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

"""Program model: stencil programs, their canonical form and dependences.

The model mirrors what pet + isl give the original PPCG-based implementation
(Section 3.1/3.2 of the paper):

* :class:`StencilProgram` — the executable description of an iterative
  stencil: fields, statements, grid sizes and time steps.  It can run itself
  with NumPy (the reference the GPU simulator is checked against).
* :class:`CanonicalForm` — the canonical schedule space: statement ``i``
  at time ``t`` runs at logical time ``k*t + i``, and its iteration domain
  is a box (:func:`~repro.model.preprocess.statement_boxes`).
* :func:`compute_dependences` — dependence analysis producing the distance
  vectors that drive the hexagonal tile construction.
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    "Expr": "repro.model.expr",
    "Constant": "repro.model.expr",
    "FieldRead": "repro.model.expr",
    "BinOp": "repro.model.expr",
    "Call": "repro.model.expr",
    "count_flops": "repro.model.expr",
    "gather_reads": "repro.model.expr",
    "Field": "repro.model.program",
    "StencilStatement": "repro.model.program",
    "StencilProgram": "repro.model.program",
    "Dependence": "repro.model.dependences",
    "DependenceKind": "repro.model.dependences",
    "compute_dependences": "repro.model.dependences",
    "dependence_distance_vectors": "repro.model.dependences",
    "CanonicalForm": "repro.model.preprocess",
    "canonicalize": "repro.model.preprocess",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

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

from repro.model.expr import (
    BinOp,
    Call,
    Constant,
    Expr,
    FieldRead,
    count_flops,
    gather_reads,
)
from repro.model.program import Field, StencilProgram, StencilStatement
from repro.model.dependences import (
    Dependence,
    DependenceKind,
    compute_dependences,
    dependence_distance_vectors,
)
from repro.model.preprocess import CanonicalForm, canonicalize

__all__ = [
    "Expr",
    "Constant",
    "FieldRead",
    "BinOp",
    "Call",
    "count_flops",
    "gather_reads",
    "Field",
    "StencilStatement",
    "StencilProgram",
    "Dependence",
    "DependenceKind",
    "compute_dependences",
    "dependence_distance_vectors",
    "CanonicalForm",
    "canonicalize",
]

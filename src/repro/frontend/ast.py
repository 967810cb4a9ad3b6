"""Concrete syntax tree of the Figure-1-style C dialect.

The parser builds these nodes; :mod:`repro.frontend.analyze` interprets them
as a stencil (loop bounds become margins, first subscripts become time
offsets) and :mod:`repro.frontend.lower` turns the bodies into
:mod:`repro.model.expr` trees.  Every node remembers the ``(line, column)``
of its first token so later stages can point diagnostics at the source.
"""

from __future__ import annotations

from repro._record import dataclass, field


@dataclass(frozen=True)
class Location:
    """1-based source position of a node's first token."""

    line: int
    column: int


# -- expressions ---------------------------------------------------------------


@dataclass(frozen=True)
class CExpr:
    """Base class for expression nodes."""

    loc: Location


@dataclass(frozen=True)
class CNumber(CExpr):
    """An integer or floating point literal (``1``, ``0.2f``, ``1e-3``)."""

    value: float | int
    is_float: bool

    def describe(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CName(CExpr):
    """An identifier used as an expression (loop variable, defined constant)."""

    name: str

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class CUnary(CExpr):
    """A unary operation (only ``-`` is produced)."""

    op: str
    operand: CExpr

    def describe(self) -> str:
        return f"{self.op}{self.operand.describe()}"


@dataclass(frozen=True)
class CBinary(CExpr):
    """A binary arithmetic operation, including ``%`` in time subscripts."""

    op: str
    lhs: CExpr
    rhs: CExpr

    def describe(self) -> str:
        return f"{self.lhs.describe()} {self.op} {self.rhs.describe()}"


@dataclass(frozen=True)
class CCall(CExpr):
    """A function call such as ``sqrtf(x)``."""

    name: str
    args: tuple[CExpr, ...]

    def describe(self) -> str:
        return f"{self.name}({', '.join(a.describe() for a in self.args)})"


@dataclass(frozen=True)
class CArrayRef(CExpr):
    """An array access ``A[(t+1)%2][i][j+1]`` (read or write target)."""

    name: str
    subscripts: tuple[CExpr, ...]

    def describe(self) -> str:
        return self.name + "".join(f"[{s.describe()}]" for s in self.subscripts)


# -- statements ----------------------------------------------------------------


@dataclass(frozen=True)
class CAssign:
    """An assignment statement ``A[...] = expr;``."""

    target: CArrayRef
    value: CExpr
    loc: Location


@dataclass(frozen=True)
class CFor:
    """A ``for`` loop with the canonical ``var = lo; var < hi; var++`` header.

    ``ivdep`` records whether a ``#pragma ivdep`` immediately preceded the
    loop.  ``body`` is the ordered list of :class:`CFor` / :class:`CAssign`
    nodes directly inside the loop.
    """

    var: str
    lower: CExpr
    upper: CExpr
    body: tuple[object, ...]
    ivdep: bool
    loc: Location


@dataclass(frozen=True)
class CDecl:
    """An array declaration ``float A[2][N][N];`` (extents may be symbolic)."""

    ctype: str
    name: str
    extents: tuple[CExpr, ...]
    loc: Location


@dataclass(frozen=True)
class CProgram:
    """A whole translation unit: defines, declarations, one time loop."""

    defines: dict[str, int] = field(default_factory=dict)
    decls: tuple[CDecl, ...] = ()
    time_loop: CFor | None = None
    name_hint: str | None = None

"""Expression trees for stencil statement bodies.

A statement body is an arithmetic expression over *field reads*.  The same
tree serves three purposes:

* **functional execution** — :meth:`Expr.evaluate` is polymorphic over the
  values the read callback returns, so evaluating with NumPy array views
  yields a vectorised whole-grid update, and evaluating with scalars yields a
  single point update (used by the GPU functional simulator);
* **static analysis** — FLOP counting and load counting feed Table 3 and the
  tile-size model of Section 3.7;
* **code generation** — :meth:`Expr.to_c` prints the body of the generated
  CUDA kernels.
"""

from __future__ import annotations

import math
from repro._record import dataclass
from collections.abc import Callable, Iterable, Sequence

ReadCallback = Callable[["FieldRead"], object]

_BINARY_OPERATORS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}

_CALL_TABLE = {
    "sqrtf": lambda x: x ** 0.5,
    "sqrt": lambda x: x ** 0.5,
    "fabsf": abs,
    "fabs": abs,
    "expf": lambda x: math.e ** x if isinstance(x, float) else _np_exp(x),
    # np.minimum/np.maximum are elementwise, so fminf/fmaxf evaluate both on
    # scalars (bit-identical to min/max on float32 values) and on whole
    # arrays (reference interpreter, batched simulator).
    "fminf": lambda a, b: _np_minmax("minimum", a, b),
    "fmaxf": lambda a, b: _np_minmax("maximum", a, b),
}

# FLOP cost per intrinsic call, used when counting the arithmetic throughput
# of a stencil (a square root or division counts as one flop, following the
# convention the paper uses for Table 3).
_CALL_FLOPS = {
    "sqrtf": 1,
    "sqrt": 1,
    "fabsf": 1,
    "fabs": 1,
    "expf": 1,
    "fminf": 1,
    "fmaxf": 1,
}


def _np_exp(x: object) -> object:
    import numpy

    return numpy.exp(x)


def _np_minmax(name: str, a: object, b: object) -> object:
    import numpy

    return getattr(numpy, name)(a, b)


class Expr:
    """Base class for stencil body expressions."""

    def evaluate(self, read: ReadCallback) -> object:
        raise NotImplementedError

    def to_c(self, index_names: Sequence[str], time_expr: str = "t") -> str:
        raise NotImplementedError

    def children(self) -> Iterable["Expr"]:
        return ()

    # -- convenience operators so stencils read naturally in the builder -----

    def __add__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("+", self, _coerce(other))

    def __radd__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("+", _coerce(other), self)

    def __sub__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("-", self, _coerce(other))

    def __rsub__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("-", _coerce(other), self)

    def __mul__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("*", self, _coerce(other))

    def __rmul__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("*", _coerce(other), self)

    def __truediv__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("/", self, _coerce(other))

    def __rtruediv__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("/", _coerce(other), self)


@dataclass(frozen=True)
class Constant(Expr):
    """A floating point literal."""

    value: float

    def evaluate(self, read: ReadCallback) -> object:
        return self.value

    def to_c(self, index_names: Sequence[str], time_expr: str = "t") -> str:
        return f"{self.value}f"

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class FieldRead(Expr):
    """A read of ``field`` at a constant offset from the current point.

    ``time_offset`` is expressed in *whole time iterations of the outer loop*:
    ``1`` means "the value produced one time iteration ago" (the common case),
    ``0`` means "the value produced earlier in the same time iteration by a
    preceding statement" (multi-statement stencils such as FDTD), and larger
    values give higher-order stencils in time.
    """

    field: str
    offsets: tuple[int, ...]
    time_offset: int = 1

    def evaluate(self, read: ReadCallback) -> object:
        return read(self)

    def to_c(self, index_names: Sequence[str], time_expr: str = "t") -> str:
        subscripts = []
        for name, offset in zip(index_names, self.offsets):
            if offset == 0:
                subscripts.append(f"[{name}]")
            elif offset > 0:
                subscripts.append(f"[{name} + {offset}]")
            else:
                subscripts.append(f"[{name} - {-offset}]")
        return f"{self.field}{''.join(subscripts)}"

    def __str__(self) -> str:
        offs = ",".join(str(o) for o in self.offsets)
        return f"{self.field}@t-{self.time_offset}[{offs}]"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic operation."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPERATORS:
            raise ValueError(f"unsupported operator {self.op!r}")

    def evaluate(self, read: ReadCallback) -> object:
        return _BINARY_OPERATORS[self.op](
            self.lhs.evaluate(read), self.rhs.evaluate(read)
        )

    def to_c(self, index_names: Sequence[str], time_expr: str = "t") -> str:
        return (
            f"({self.lhs.to_c(index_names, time_expr)} {self.op} "
            f"{self.rhs.to_c(index_names, time_expr)})"
        )

    def children(self) -> Iterable[Expr]:
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class Call(Expr):
    """A call to a math intrinsic (``sqrtf``, ``fabsf``, ...)."""

    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.name not in _CALL_TABLE:
            raise ValueError(f"unsupported intrinsic {self.name!r}")

    def evaluate(self, read: ReadCallback) -> object:
        values = [arg.evaluate(read) for arg in self.args]
        if self.name in ("sqrtf", "sqrt"):
            value = values[0]
            try:
                import numpy

                return numpy.sqrt(value)
            except Exception:  # pragma: no cover - numpy is a hard dependency
                return math.sqrt(value)
        return _CALL_TABLE[self.name](*values)

    def to_c(self, index_names: Sequence[str], time_expr: str = "t") -> str:
        args = ", ".join(arg.to_c(index_names, time_expr) for arg in self.args)
        return f"{self.name}({args})"

    def children(self) -> Iterable[Expr]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


# -- analyses -----------------------------------------------------------------


def walk(expr: Expr):
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def count_flops(expr: Expr) -> int:
    """Number of floating point operations performed by one evaluation.

    Shared sub-expression objects (the same :class:`Expr` instance appearing
    several times in the tree, e.g. ``dx * dx``) are counted once: the code
    generator emits them into a register and reuses it, exactly as a compiler
    performing common sub-expression elimination would.
    """
    total = 0
    seen: set[int] = set()
    for node in walk(expr):
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, BinOp):
            total += 1
        elif isinstance(node, Call):
            total += _CALL_FLOPS[node.name]
    return total


def gather_reads(expr: Expr) -> list[FieldRead]:
    """All field reads, in evaluation order (duplicates preserved)."""
    return [node for node in walk(expr) if isinstance(node, FieldRead)]


def distinct_reads(expr: Expr) -> list[FieldRead]:
    """Distinct field reads (what a cache or register reuse would load once)."""
    seen: set[FieldRead] = set()
    result: list[FieldRead] = []
    for node in gather_reads(expr):
        if node not in seen:
            seen.add(node)
            result.append(node)
    return result


def _coerce(value: "Expr | float | int") -> Expr:
    if isinstance(value, Expr):
        return value
    return Constant(float(value))

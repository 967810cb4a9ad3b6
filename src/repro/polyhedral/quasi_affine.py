"""Quasi-affine expressions: affine arithmetic plus floor-division and modulo.

The hybrid schedule of the paper (equations (2)–(5) and (14)–(17), Figure 6)
uses integer division and modulo; those operations are not affine, so they are
represented here as small expression trees that can be evaluated exactly on
integer points and pretty-printed as C expressions.  Their one user is
:meth:`repro.tiling.hybrid.HybridTiling.schedule_expressions`, the closed-form
schedule of Figure 6 (:func:`repro.experiments.figures.figure6_schedule`).
The schedule engine, the validators, the simulator and the code generator
evaluate or emit the same formulas directly.
"""

from __future__ import annotations

from repro._record import dataclass
from collections.abc import Mapping


def _coerce(value: "QExpr | int") -> "QExpr":
    """Wrap plain integers as constant nodes (used by the operator sugar)."""
    if isinstance(value, QExpr):
        return value
    return QConst(int(value))


class QExpr:
    """Base class of quasi-affine expression nodes."""

    def evaluate(self, env: Mapping[str, int]) -> int:
        raise NotImplementedError

    def to_c(self) -> str:
        raise NotImplementedError

    def variables(self) -> set[str]:
        raise NotImplementedError

    # Operator sugar -----------------------------------------------------------

    def __add__(self, other: "QExpr | int") -> "QExpr":
        return QAdd(self, _coerce(other))

    def __radd__(self, other: "QExpr | int") -> "QExpr":
        return QAdd(_coerce(other), self)

    def __sub__(self, other: "QExpr | int") -> "QExpr":
        return QSub(self, _coerce(other))

    def __rsub__(self, other: "QExpr | int") -> "QExpr":
        return QSub(_coerce(other), self)

    def __mul__(self, other: int) -> "QExpr":
        return QMul(self, int(other))

    __rmul__ = __mul__

    def __floordiv__(self, other: int) -> "QExpr":
        return QFloorDiv(self, int(other))

    def __mod__(self, other: int) -> "QExpr":
        return QMod(self, int(other))

    def __str__(self) -> str:
        return self.to_c()


@dataclass(frozen=True)
class QVar(QExpr):
    """A named integer variable."""

    name: str

    def evaluate(self, env: Mapping[str, int]) -> int:
        return int(env[self.name])

    def to_c(self) -> str:
        return self.name

    def variables(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class QConst(QExpr):
    """An integer constant."""

    value: int

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.value

    def to_c(self) -> str:
        return str(self.value) if self.value >= 0 else f"({self.value})"

    def variables(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class QAdd(QExpr):
    lhs: QExpr
    rhs: QExpr

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.lhs.evaluate(env) + self.rhs.evaluate(env)

    def to_c(self) -> str:
        return f"({self.lhs.to_c()} + {self.rhs.to_c()})"

    def variables(self) -> set[str]:
        return self.lhs.variables() | self.rhs.variables()


@dataclass(frozen=True)
class QSub(QExpr):
    lhs: QExpr
    rhs: QExpr

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.lhs.evaluate(env) - self.rhs.evaluate(env)

    def to_c(self) -> str:
        return f"({self.lhs.to_c()} - {self.rhs.to_c()})"

    def variables(self) -> set[str]:
        return self.lhs.variables() | self.rhs.variables()


@dataclass(frozen=True)
class QMul(QExpr):
    """Multiplication by an integer constant."""

    operand: QExpr
    factor: int

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.operand.evaluate(env) * self.factor

    def to_c(self) -> str:
        return f"({self.factor} * {self.operand.to_c()})"

    def variables(self) -> set[str]:
        return self.operand.variables()


@dataclass(frozen=True)
class QFloorDiv(QExpr):
    """Floor division by a positive integer constant.

    Note that C's ``/`` truncates towards zero; the emitted C uses the
    ``floord`` helper macro (as PPCG does) so negative numerators round the
    same way as the Python evaluation.
    """

    operand: QExpr
    divisor: int

    def __post_init__(self) -> None:
        if self.divisor <= 0:
            raise ValueError("floor division requires a positive divisor")

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.operand.evaluate(env) // self.divisor

    def to_c(self) -> str:
        return f"floord({self.operand.to_c()}, {self.divisor})"

    def variables(self) -> set[str]:
        return self.operand.variables()


@dataclass(frozen=True)
class QMod(QExpr):
    """Mathematical modulo by a positive integer constant (result in [0, m))."""

    operand: QExpr
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus <= 0:
            raise ValueError("modulo requires a positive modulus")

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.operand.evaluate(env) % self.modulus

    def to_c(self) -> str:
        # C's % follows the sign of the dividend; emit the wrap-around form.
        inner = self.operand.to_c()
        return f"((({inner}) % {self.modulus} + {self.modulus}) % {self.modulus})"

    def variables(self) -> set[str]:
        return self.operand.variables()


def qvar(name: str) -> QVar:
    """Shorthand constructor for a variable node."""
    return QVar(name)


def qconst(value: int) -> QConst:
    """Shorthand constructor for a constant node."""
    return QConst(int(value))

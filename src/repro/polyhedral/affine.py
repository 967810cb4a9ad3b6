"""Affine (linear + constant) expressions with exact rational coefficients.

The hexagonal tile construction of the paper manipulates constraints whose
coefficients are rational numbers (the slopes ``δ0`` and ``δ1`` of the
dependence cone).  Using :class:`fractions.Fraction` everywhere keeps the
constructed schedules exact; floating point error here would silently produce
illegal schedules.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from collections.abc import Mapping

Rational = int | Fraction


@lru_cache(maxsize=512)
def _int_fraction(value: int) -> Fraction:
    return Fraction(value)


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return _int_fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class LinearExpr:
    """An affine expression ``sum_i c_i * x_i + constant``.

    Coefficients are stored sparsely in a ``{name: Fraction}`` mapping; the
    expression is immutable and hashable so it can be used in sets and as
    dictionary keys.
    """

    __slots__ = ("_coeffs", "_constant", "_hash")

    def __init__(
        self,
        coeffs: Mapping[str, Rational] | None = None,
        constant: Rational = 0,
    ) -> None:
        cleaned: dict[str, Fraction] = {}
        if coeffs:
            for name, value in coeffs.items():
                frac = _as_fraction(value)
                if frac != 0:
                    cleaned[name] = frac
        self._coeffs: dict[str, Fraction] = cleaned
        self._constant: Fraction = _as_fraction(constant)
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def var(name: str, coefficient: Rational = 1) -> "LinearExpr":
        """The expression ``coefficient * name``."""
        return LinearExpr({name: coefficient})

    @staticmethod
    def const(value: Rational) -> "LinearExpr":
        """A constant expression."""
        return LinearExpr({}, value)

    # -- accessors ----------------------------------------------------------

    @property
    def coeffs(self) -> dict[str, Fraction]:
        """Sparse coefficient mapping (zero coefficients are omitted)."""
        return dict(self._coeffs)

    @property
    def constant(self) -> Fraction:
        return self._constant

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LinearExpr | Rational") -> "LinearExpr":
        other_expr = _coerce(other)
        coeffs = dict(self._coeffs)
        for name, value in other_expr._coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + value
        return LinearExpr(coeffs, self._constant + other_expr._constant)

    __radd__ = __add__

    def __neg__(self) -> "LinearExpr":
        return LinearExpr(
            {name: -value for name, value in self._coeffs.items()},
            -self._constant,
        )

    def __sub__(self, other: "LinearExpr | Rational") -> "LinearExpr":
        return self + (-_coerce(other))

    def __rsub__(self, other: "LinearExpr | Rational") -> "LinearExpr":
        return _coerce(other) - self

    def __mul__(self, scalar: Rational) -> "LinearExpr":
        factor = _as_fraction(scalar)
        return LinearExpr(
            {name: value * factor for name, value in self._coeffs.items()},
            self._constant * factor,
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rational) -> "LinearExpr":
        factor = _as_fraction(scalar)
        if factor == 0:
            raise ZeroDivisionError("division of LinearExpr by zero")
        return self * (Fraction(1) / factor)

    # -- normalisation --------------------------------------------------------

    def denominator_lcm(self) -> int:
        """Least common multiple of all coefficient denominators."""
        lcm = self._constant.denominator
        for value in self._coeffs.values():
            lcm = _lcm(lcm, value.denominator)
        return lcm

    def scaled_to_integers(self) -> "LinearExpr":
        """Return an equivalent-direction expression with integer coefficients."""
        return self * self.denominator_lcm()

    # -- dunder plumbing -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._constant == other._constant

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (tuple(sorted(self._coeffs.items())), self._constant)
            )
        return self._hash

    def __repr__(self) -> str:
        return f"LinearExpr({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for name in sorted(self._coeffs):
            coeff = self._coeffs[name]
            if coeff == 1:
                parts.append(f"+ {name}")
            elif coeff == -1:
                parts.append(f"- {name}")
            elif coeff < 0:
                parts.append(f"- {-coeff}*{name}")
            else:
                parts.append(f"+ {coeff}*{name}")
        if self._constant != 0 or not parts:
            if self._constant < 0:
                parts.append(f"- {-self._constant}")
            else:
                parts.append(f"+ {self._constant}")
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        return text


def _coerce(value: "LinearExpr | Rational") -> LinearExpr:
    if isinstance(value, LinearExpr):
        return value
    return LinearExpr.const(value)


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a // gcd(a, b) * b

"""The hexagonal tile shape (Section 3.3.2, Figure 4).

A hexagonal tile is described in the local coordinates ``(a, b)`` of the
rectangular box of one ``(T, S0)`` tile, where ``a`` is the local (logical)
time coordinate and ``b`` the local space coordinate.  The tile is the set of
integer points satisfying the constraints (6), (7), (8), (10), (12) and (13)
of the paper:

.. math::

    δ0·a - b &\\le (2h+1)·δ0 - ⌊δ0·h⌋            \\qquad (6) \\\\
    a &\\le 2h+1                                   \\qquad (7) \\\\
    δ1·a + b &\\le (2h+1)·δ1 + ⌊δ0·h⌋ + w_0        \\qquad (8) \\\\
    δ1·a + b &\\ge h·δ1 - (d_1-1)/d_1              \\qquad (10) \\\\
    δ0·a - b &\\ge h·δ0 - ⌊δ0·h⌋ - w_0 - ⌊δ1·h⌋ - (d_0-1)/d_0  \\qquad (12) \\\\
    a &\\ge 0                                      \\qquad (13)

where ``d_0`` and ``d_1`` are the denominators of ``δ0`` and ``δ1``.  The
width parameter must satisfy the convexity condition (1):

.. math::

    w_0 \\ge \\max(δ0 + \\{δ0·h\\}, δ1 + \\{δ1·h\\}) - 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro._record import dataclass
from repro.polyhedral.affine import LinearExpr
from repro.polyhedral.constraint import Constraint
from repro.tiling.cone import DependenceCone

if TYPE_CHECKING:
    import numpy as np


def _floor(value: Fraction) -> int:
    return math.floor(value)


def _fractional_part(value: Fraction) -> Fraction:
    return value - _floor(value)


def minimal_width(delta0: Fraction, delta1: Fraction, height: int) -> int:
    """Smallest integer ``w0`` satisfying the convexity condition (1)."""
    bound = max(
        delta0 + _fractional_part(delta0 * height),
        delta1 + _fractional_part(delta1 * height),
    ) - 1
    return max(0, math.ceil(bound))


def row_bounds(
    delta0: Fraction, delta1: Fraction, height: int, width: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inclusive ``(lower, upper)`` bounds of ``b`` in every row of a hexagon.

    One entry per row ``a`` in ``[0, 2h+1]`` of the hexagon of height ``h``
    and width ``w0``.  Each rational bound ``p/q`` of the constraints (6),
    (8), (10) and (12) is reduced with ``ceil(p/q) = -((-p) // q)`` and
    ``floor(p/q) = p // q`` on scaled integer numerators, so the result is
    exact (no floating point).
    """
    h, w0 = height, width
    n0, q0 = delta0.numerator, delta0.denominator
    n1, q1 = delta1.numerator, delta1.denominator
    d0h = (n0 * h) // q0
    d1h = (n1 * h) // q1
    rows = range(2 * h + 2)
    lower = tuple(
        max(
            # From (6):  b >= δ0·(a - (2h+1)) + ⌊δ0·h⌋
            d0h - (n0 * (2 * h + 1 - a)) // q0,
            # From (10): b >= (δ1·(h - a)·q1 - (q1-1)) / q1
            -((n1 * (a - h) + (q1 - 1)) // q1),
        )
        for a in rows
    )
    upper = tuple(
        min(
            # From (8):  b <= δ1·(2h+1-a) + ⌊δ0·h⌋ + w0
            (n1 * (2 * h + 1 - a)) // q1 + d0h + w0,
            # From (12): b <= (δ0·(a-h)·q0 + (q0-1))/q0 + ⌊δ0·h⌋ + w0 + ⌊δ1·h⌋
            (n0 * (a - h) + (q0 - 1)) // q0 + d0h + w0 + d1h,
        )
        for a in rows
    )
    return lower, upper


@dataclass(frozen=True)
class HexagonalTileShape:
    """A hexagonal tile of height parameter ``h`` and width parameter ``w0``.

    The actual tile spans ``2h+2`` logical time steps (two half-tiles of
    ``h+1`` steps) and between ``w0+1`` and ``w0+1+⌊δ0h⌋+⌊δ1h⌋`` points along
    the space dimension, so the full period along the space dimension covered
    by one phase-0 plus one phase-1 tile is ``2w0+2+⌊δ0h⌋+⌊δ1h⌋``.
    """

    cone: DependenceCone
    height: int
    width: int

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError("tile height h must be non-negative")
        if self.width < 0:
            raise ValueError("tile width w0 must be non-negative")
        needed = minimal_width(self.cone.delta0, self.cone.delta1, self.height)
        if self.width < needed:
            raise ValueError(
                f"width w0={self.width} violates the convexity condition (1); "
                f"need w0 >= {needed} for h={self.height}, cone={self.cone}"
            )

    # -- derived quantities -------------------------------------------------------

    @property
    def delta0(self) -> Fraction:
        return self.cone.delta0

    @property
    def delta1(self) -> Fraction:
        return self.cone.delta1

    @cached_property
    def floor_delta0_h(self) -> int:
        """``⌊δ0·h⌋`` — the widening of the tile towards lower ``b``."""
        return _floor(self.delta0 * self.height)

    @cached_property
    def floor_delta1_h(self) -> int:
        """``⌊δ1·h⌋`` — the widening of the tile towards higher ``b``."""
        return _floor(self.delta1 * self.height)

    @cached_property
    def time_period(self) -> int:
        """Logical time steps per (two-phase) tile row: ``2h + 2``."""
        return 2 * self.height + 2

    @cached_property
    def space_period(self) -> int:
        """Space extent per phase-0 + phase-1 tile pair along ``s0``."""
        return 2 * self.width + 2 + self.floor_delta0_h + self.floor_delta1_h

    @cached_property
    def drift(self) -> int:
        """Offset ``⌊δ1·h⌋ - ⌊δ0·h⌋`` applied per time tile (tiles "lean")."""
        return self.floor_delta1_h - self.floor_delta0_h

    # -- the tile shape -------------------------------------------------------------

    @cached_property
    def constraints(self) -> list[Constraint]:
        """The constraints (6), (7), (8), (10), (12), (13) on ``(a, b)``."""
        a = LinearExpr.var("a")
        b = LinearExpr.var("b")
        h = self.height
        w0 = self.width
        delta0 = self.delta0
        delta1 = self.delta1
        d0h = self.floor_delta0_h
        d1h = self.floor_delta1_h
        denominator0 = delta0.denominator
        denominator1 = delta1.denominator

        constraints = [
            # (6)  δ0·a - b <= (2h+1)·δ0 - ⌊δ0·h⌋
            Constraint.le(a * delta0 - b, delta0 * (2 * h + 1) - d0h),
            # (7)  a <= 2h+1
            Constraint.le(a, 2 * h + 1),
            # (8)  δ1·a + b <= (2h+1)·δ1 + ⌊δ0·h⌋ + w0
            Constraint.le(a * delta1 + b, delta1 * (2 * h + 1) + d0h + w0),
            # (10) δ1·a + b >= h·δ1 - (d1-1)/d1
            Constraint.ge(
                a * delta1 + b,
                delta1 * h - Fraction(denominator1 - 1, denominator1),
            ),
            # (12) δ0·a - b >= h·δ0 - ⌊δ0·h⌋ - w0 - ⌊δ1·h⌋ - (d0-1)/d0
            Constraint.ge(
                a * delta0 - b,
                delta0 * h - d0h - w0 - d1h - Fraction(denominator0 - 1, denominator0),
            ),
            # (13) a >= 0
            Constraint.ge(a, 0),
        ]
        return constraints

    @cached_property
    def _row_bounds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Inclusive ``(lower, upper)`` bounds of ``b`` per row ``a``.

        One integer pass over all ``2h + 2`` rows (:func:`row_bounds`).  The
        test oracle (``tests/tiling/oracle.py``) re-derives the bounds in
        :class:`~fractions.Fraction` arithmetic.
        """
        return row_bounds(self.delta0, self.delta1, self.height, self.width)

    @cached_property
    def _row_ranges(self) -> tuple[range, ...]:
        """``row_range(a)`` for every ``a`` in ``[0, 2h+1]``, precomputed once.

        Membership tests run once per statement instance and phase, so the
        row bounds are evaluated a single time (one pass) and the
        per-point check reduces to two integer comparisons.
        """
        return tuple(range(lo, hi + 1) for lo, hi in zip(*self._row_bounds))

    def contains(self, a: int, b: int) -> bool:
        """Whether local point ``(a, b)`` belongs to the hexagon.

        Equivalent to checking the constraints (6)-(13): (7) and (13) bound
        ``a``, the remaining four constraints are exactly the row bounds.
        """
        if a < 0 or a > 2 * self.height + 1:
            return False
        return b in self._row_ranges[a]

    def contains_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` over arrays of local points."""
        import numpy as np

        lower, upper = (np.array(bounds) for bounds in self._row_bounds)
        valid = (a >= 0) & (a <= 2 * self.height + 1)
        clipped = np.where(valid, a, 0)
        return valid & (b >= lower[clipped]) & (b <= upper[clipped])

    def points(self) -> Iterator[tuple[int, int]]:
        """All integer points of the tile, ordered by ``(a, b)``."""
        for a in range(0, 2 * self.height + 2):
            for b in self.row_range(a):
                yield (a, b)

    def row_range(self, a: int) -> range:
        """Integer ``b`` values of the tile at local time ``a``."""
        if a < 0 or a > 2 * self.height + 1:
            return range(0)
        return self._row_ranges[a]

    @cached_property
    def _point_count(self) -> int:
        return sum(len(rows) for rows in self._row_ranges)

    def count(self) -> int:
        """Number of integer points in the tile.

        Every *full* tile of the tiling contains exactly this many points —
        the property that distinguishes hexagonal from diamond tiling
        (Section 2 of the paper).
        """
        return self._point_count

    def row_width(self, a: int) -> int:
        """Number of points of the tile at local time ``a``."""
        return len(self.row_range(a))

    def peak_width(self) -> int:
        """Width of the narrowest row (the adjustable "peak" of Section 2)."""
        return min(self.row_width(a) for a in range(0, 2 * self.height + 2))

    def max_width(self) -> int:
        """Width of the widest row of the tile."""
        return max(self.row_width(a) for a in range(0, 2 * self.height + 2))

    @cached_property
    def _bounding_box(self) -> tuple[tuple[int, int], tuple[int, int]]:
        lows = [rows[0] for rows in self._row_ranges if len(rows)]
        highs = [rows[-1] for rows in self._row_ranges if len(rows)]
        return ((0, 2 * self.height + 1), (min(lows), max(highs)))

    def bounding_box(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Bounding box ``((a_min, a_max), (b_min, b_max))`` of the tile."""
        return self._bounding_box

    def __str__(self) -> str:
        return (
            f"HexagonalTileShape(h={self.height}, w0={self.width}, "
            f"delta0={self.delta0}, delta1={self.delta1}, points={self.count()})"
        )

    # -- ASCII rendering (used by examples and the Figure 4 bench) -----------------

    def render(self) -> str:
        """Render the tile as ASCII art (rows = time, columns = space)."""
        (_, _), (b_min, b_max) = self.bounding_box()
        lines = []
        for a in range(2 * self.height + 1, -1, -1):
            row = []
            row_points = set(self.row_range(a))
            for b in range(b_min, b_max + 1):
                row.append("#" if b in row_points else ".")
            lines.append(f"a={a:2d} " + "".join(row))
        return "\n".join(lines)

"""The two-phase hexagonal tile schedule (Section 3.3.3, Figure 5).

The schedule maps the two-dimensional canonical space ``[l, s0]`` (``l`` is
logical time) to a three-dimensional tile space ``[T, p, S0]``:

* phase 0 ("blue" tiles)::

      T  = floor((l + h + 1) / (2h + 2))                                  (2)
      S0 = floor((s0 + ⌊δ0·h⌋ + w0 + 1 + T·(⌊δ1·h⌋ - ⌊δ0·h⌋))
                 / (2·w0 + 2 + ⌊δ0·h⌋ + ⌊δ1·h⌋))                          (3)

  Note: equation (3) as printed in the paper uses ``⌊δ1·h⌋ + w0 + 1`` for the
  phase-0 offset.  With the tile-shape constraints (6)–(13) as printed, that
  offset only yields an exact tiling when ``⌊δ0·h⌋ = ⌊δ1·h⌋``; for asymmetric
  dependence cones it leaves gaps (and creates overlaps) between the two
  phases.  Using ``⌊δ0·h⌋ + w0 + 1`` instead gives exact coverage *and* a
  legal schedule for every cone we tested (symmetric, asymmetric and
  fractional slopes), so that is what this implementation — and the
  property-based tests — use.  The two forms coincide for all benchmarks in
  the paper's evaluation (their stencils have symmetric cones).

* phase 1 ("green" tiles)::

      T  = floor(l / (2h + 2))                                            (4)
      S0 = floor((s0 + T·(⌊δ1·h⌋ - ⌊δ0·h⌋))
                 / (2·w0 + 2 + ⌊δ0·h⌋ + ⌊δ1·h⌋))                          (5)

Within one ``T`` all phase-0 tiles execute before all phase-1 tiles; tiles of
the same phase form a parallel wavefront indexed by ``S0``.  A point belongs
to the phase whose hexagon constraints it satisfies in the local coordinates
``(a, b)`` of the corresponding box; the two phases partition the plane.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro._record import dataclass
from repro.polyhedral.quasi_affine import QExpr, QFloorDiv, QMod, qconst, qvar
from repro.tiling.hexagon import HexagonalTileShape

if TYPE_CHECKING:
    import numpy as np


class Phase(enum.IntEnum):
    """The two phases of the hexagonal schedule."""

    BLUE = 0   # executed first within a time tile
    GREEN = 1  # executed second


@dataclass(frozen=True)
class HexTileAssignment:
    """Result of assigning a canonical point to a hexagonal tile."""

    phase: Phase
    time_tile: int       # T
    space_tile: int      # S0
    local_time: int      # a — also the intra-tile time coordinate t'
    local_space: int     # b — also the intra-tile space coordinate s0'


class HexagonalSchedule:
    """Hexagonal tiling of the ``(l, s0)`` plane for a given tile shape."""

    def __init__(self, shape: HexagonalTileShape) -> None:
        self.shape = shape

    # -- per-phase box coordinates -------------------------------------------------

    def phase0_box(self, l, s0):
        """Return ``(T, S0, a, b)`` of the phase-0 box containing the point.

        Equations (2) and (3); ``l`` and ``s0`` are ints or int64 arrays
        (NumPy's floor division and modulo follow Python semantics).
        """
        shape = self.shape
        time_tile = (l + shape.height + 1) // shape.time_period
        numerator = (
            s0
            + shape.floor_delta0_h
            + shape.width
            + 1
            + time_tile * shape.drift
        )
        space_tile = numerator // shape.space_period
        local_time = (l + shape.height + 1) % shape.time_period
        local_space = numerator % shape.space_period
        return time_tile, space_tile, local_time, local_space

    def phase1_box(self, l, s0):
        """Return ``(T, S0, a, b)`` of the phase-1 box: equations (4) and (5)."""
        shape = self.shape
        time_tile = l // shape.time_period
        numerator = s0 + time_tile * shape.drift
        space_tile = numerator // shape.space_period
        local_time = l % shape.time_period
        local_space = numerator % shape.space_period
        return time_tile, space_tile, local_time, local_space

    # -- assignment --------------------------------------------------------------------

    def assign(self, l: int, s0: int, check_unique: bool = False) -> HexTileAssignment:
        """Assign a canonical point to its unique hexagonal tile.

        With ``check_unique`` the membership in *both* phases is evaluated and
        an error is raised unless exactly one phase claims the point (this is
        how the partitioning property is tested).
        """
        t0, S0_0, a0, b0 = self.phase0_box(l, s0)
        in_phase0 = self.shape.contains(a0, b0)
        t1, S0_1, a1, b1 = self.phase1_box(l, s0)
        in_phase1 = self.shape.contains(a1, b1)

        if check_unique and in_phase0 == in_phase1:
            raise ValueError(
                f"point (l={l}, s0={s0}) claimed by "
                f"{'both phases' if in_phase0 else 'no phase'}"
            )
        if in_phase0:
            return HexTileAssignment(Phase.BLUE, t0, S0_0, a0, b0)
        if in_phase1:
            return HexTileAssignment(Phase.GREEN, t1, S0_1, a1, b1)
        raise ValueError(f"point (l={l}, s0={s0}) not covered by any hexagonal tile")

    def assign_batch(
        self, l: np.ndarray, s0: np.ndarray, check_unique: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`assign` over arrays of canonical points.

        Returns ``(phase, T, S0, a, b)`` as int64 arrays, elementwise
        identical to :meth:`assign`.  With ``check_unique`` a
        :class:`ValueError` is raised unless exactly one phase claims every
        point (the partitioning property of Section 3.3.3).
        """
        import numpy as np

        shape = self.shape
        l = np.asarray(l, dtype=np.int64)
        s0 = np.asarray(s0, dtype=np.int64)
        t0, S0_0, a0, b0 = self.phase0_box(l, s0)
        in_phase0 = shape.contains_batch(a0, b0)
        t1, S0_1, a1, b1 = self.phase1_box(l, s0)
        in_phase1 = shape.contains_batch(a1, b1)

        if check_unique:
            bad = in_phase0 == in_phase1
            if bad.any():
                index = int(np.flatnonzero(bad)[0])
                claimed = "both phases" if bool(in_phase0[index]) else "no phase"
                raise ValueError(
                    f"point (l={int(l[index])}, s0={int(s0[index])}) "
                    f"claimed by {claimed}"
                )
        elif not (in_phase0 | in_phase1).all():
            index = int(np.flatnonzero(~(in_phase0 | in_phase1))[0])
            raise ValueError(
                f"point (l={int(l[index])}, s0={int(s0[index])}) not covered "
                "by any hexagonal tile"
            )

        phase = np.where(in_phase0, int(Phase.BLUE), int(Phase.GREEN))
        return (
            phase.astype(np.int64),
            np.where(in_phase0, t0, t1),
            np.where(in_phase0, S0_0, S0_1),
            np.where(in_phase0, a0, a1),
            np.where(in_phase0, b0, b1),
        )

    def tile_points(
        self, phase: Phase, time_tile: int, space_tile: int
    ) -> Iterator[tuple[int, int]]:
        """Canonical points ``(l, s0)`` of one hexagonal tile."""
        shape = self.shape
        for a, b in shape.points():
            if phase is Phase.BLUE:
                l = time_tile * shape.time_period + a - (shape.height + 1)
                s0 = (
                    space_tile * shape.space_period
                    + b
                    - shape.floor_delta0_h
                    - shape.width
                    - 1
                    - time_tile * shape.drift
                )
            else:
                l = time_tile * shape.time_period + a
                s0 = space_tile * shape.space_period + b - time_tile * shape.drift
            yield (l, s0)

    # -- quasi-affine expressions for code generation --------------------------------------

    def time_tile_expr(self, phase: Phase, l: QExpr | None = None) -> QExpr:
        """Quasi-affine expression of ``T`` as a function of logical time."""
        logical = l if l is not None else qvar("l")
        if phase is Phase.BLUE:
            return QFloorDiv(logical + qconst(self.shape.height + 1), self.shape.time_period)
        return QFloorDiv(logical, self.shape.time_period)

    def space_tile_expr(
        self, phase: Phase, s0: QExpr | None = None, time_tile: QExpr | None = None
    ) -> QExpr:
        """Quasi-affine expression of ``S0`` given ``s0`` and ``T``."""
        shape = self.shape
        space = s0 if s0 is not None else qvar("s0")
        tile = time_tile if time_tile is not None else qvar("T")
        if phase is Phase.BLUE:
            numerator = (
                space
                + qconst(shape.floor_delta0_h + shape.width + 1)
                + tile * shape.drift
            )
        else:
            numerator = space + tile * shape.drift
        return QFloorDiv(numerator, shape.space_period)

    def local_time_expr(self, phase: Phase, l: QExpr | None = None) -> QExpr:
        """Quasi-affine expression of the intra-tile time coordinate ``a``."""
        logical = l if l is not None else qvar("l")
        if phase is Phase.BLUE:
            return QMod(logical + qconst(self.shape.height + 1), self.shape.time_period)
        return QMod(logical, self.shape.time_period)

    def local_space_expr(
        self, phase: Phase, s0: QExpr | None = None, time_tile: QExpr | None = None
    ) -> QExpr:
        """Quasi-affine expression of the intra-tile space coordinate ``b``."""
        shape = self.shape
        space = s0 if s0 is not None else qvar("s0")
        tile = time_tile if time_tile is not None else qvar("T")
        if phase is Phase.BLUE:
            numerator = (
                space
                + qconst(shape.floor_delta0_h + shape.width + 1)
                + tile * shape.drift
            )
        else:
            numerator = space + tile * shape.drift
        return QMod(numerator, shape.space_period)

    def __repr__(self) -> str:
        return f"HexagonalSchedule({self.shape})"

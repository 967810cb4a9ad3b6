"""Columnar schedule of statement instances.

One :class:`ScheduleArrays` carries the full hybrid schedule of ``N``
statement instances as int64 columns, built by
:meth:`repro.tiling.hybrid.HybridTiling.assign_batch`.  Every ordering
question becomes an ``np.lexsort`` over the schedule key and every tile or
barrier step a run of equal keys (:func:`run_boundaries`), so validation and
simulation never materialise one Python object per point.  The brute-force
oracle in ``tests/tiling/oracle.py`` re-derives the same schedule one point
at a time.
"""

from __future__ import annotations

from repro._record import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.tiling.hybrid import SchedulePoint


@dataclass(frozen=True)
class ScheduleArrays:
    """Schedule coordinates of ``N`` statement instances, one column each.

    All arrays are int64 and share the row order of the canonical points they
    were built from.  ``space_tiles`` and ``local_space`` have one column per
    space dimension (``S_0 .. S_n`` and ``s'_0 .. s'_n``).
    """

    canonical: np.ndarray        # (N, 1 + ndim) — l, s0 .. sn
    statement_index: np.ndarray  # (N,)
    time_tile: np.ndarray        # (N,) — T
    phase: np.ndarray            # (N,) — p
    space_tiles: np.ndarray      # (N, ndim) — S0 .. Sn
    local_time: np.ndarray       # (N,) — t'
    local_space: np.ndarray      # (N, ndim) — s'0 .. s'n

    def __len__(self) -> int:
        return len(self.canonical)

    @property
    def ndim(self) -> int:
        return self.space_tiles.shape[1]

    # -- ordering ----------------------------------------------------------------

    def sequential_key_columns(self) -> tuple[np.ndarray, ...]:
        """Columns of the GPU-compatible total order, most significant first.

        ``(T, p, S0, S1..Sn, t', s'0..s'n)``: blocks (``S0``) and threads are
        enumerated in ascending order, which is one valid interleaving of the
        parallel execution.
        """
        return (
            self.time_tile,
            self.phase,
            *(self.space_tiles[:, axis] for axis in range(self.ndim)),
            self.local_time,
            *(self.local_space[:, axis] for axis in range(self.ndim)),
        )

    def tile_key_columns(self) -> tuple[np.ndarray, ...]:
        """Columns identifying the tile: ``(T, p, S0 .. Sn)``."""
        return (
            self.time_tile,
            self.phase,
            *(self.space_tiles[:, axis] for axis in range(self.ndim)),
        )

    def sequential_order(self) -> np.ndarray:
        """Stable permutation sorting the rows by the sequential key."""
        keys = self.sequential_key_columns()
        return np.lexsort(tuple(reversed(keys)))

    def take(self, indices: np.ndarray) -> "ScheduleArrays":
        """Row subset/permutation (``arrays.take(order)`` sorts the schedule)."""
        return ScheduleArrays(
            canonical=self.canonical[indices],
            statement_index=self.statement_index[indices],
            time_tile=self.time_tile[indices],
            phase=self.phase[indices],
            space_tiles=self.space_tiles[indices],
            local_time=self.local_time[indices],
            local_space=self.local_space[indices],
        )

    def point(self, index: int) -> "SchedulePoint":
        """Materialise one row as a :class:`SchedulePoint` (error reporting)."""
        from repro.tiling.hex_schedule import Phase
        from repro.tiling.hybrid import SchedulePoint, TileCoordinate

        tile = TileCoordinate(
            time_tile=int(self.time_tile[index]),
            phase=Phase(int(self.phase[index])),
            space_tiles=tuple(int(v) for v in self.space_tiles[index]),
        )
        return SchedulePoint(
            tile=tile,
            local_time=int(self.local_time[index]),
            local_space=tuple(int(v) for v in self.local_space[index]),
            statement_index=int(self.statement_index[index]),
            canonical_point=tuple(int(v) for v in self.canonical[index]),
        )


def run_boundaries(*columns: np.ndarray) -> np.ndarray:
    """Start indices of the runs of equal composite keys in sorted columns.

    Given columns already sorted lexicographically, returns the indices where
    the composite key ``(columns[0][i], columns[1][i], ...)`` differs from the
    previous row (always including row 0).
    """
    if not columns:
        raise ValueError("need at least one key column")
    n = len(columns[0])
    if n == 0:
        return np.empty(0, dtype=np.intp)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for column in columns:
        change[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(change)


def lexicographic_less(
    left: tuple[np.ndarray, ...], right: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Elementwise ``left < right`` for tuples of key columns."""
    if len(left) != len(right):
        raise ValueError("key tuples must have the same arity")
    less = np.zeros(len(left[0]), dtype=bool)
    equal = np.ones(len(left[0]), dtype=bool)
    for lcol, rcol in zip(left, right):
        less |= equal & (lcol < rcol)
        equal &= lcol == rcol
    return less

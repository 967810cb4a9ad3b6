"""The hybrid hexagonal/classical tiling (Sections 3.5 and 3.6, Figure 6).

The hybrid schedule maps every statement instance

.. math::

    [t, s_0, ..., s_n] \\;\\to\\; [T, p, S_0, S_1, ..., S_n, t', s_0', ..., s_n']

where ``(T, p, S_0)`` come from the hexagonal schedule of the ``(l, s_0)``
plane (``l = k·t + i`` the logical time), ``S_1..S_n`` from the classical
tilings of the remaining space dimensions and the primed coordinates are the
intra-tile schedules of Section 3.5.

Execution semantics on the GPU (Section 4.1):

* ``T`` — sequential host loop;
* ``p`` — two kernels per ``T`` iteration, phase 0 then phase 1;
* ``S_0`` — parallel across thread blocks;
* ``S_1 .. S_n`` — sequential loops inside the kernel;
* ``t'`` — sequential loop with a barrier after every iteration;
* ``s_0' .. s_n'`` — parallel across the threads of the block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._record import dataclass
from repro.model.preprocess import CanonicalForm
from repro.polyhedral.quasi_affine import QExpr, qvar
from repro.tiling.classical import ClassicalTiling
from repro.tiling.cone import DependenceCone
from repro.tiling.hex_schedule import HexagonalSchedule, Phase
from repro.tiling.hexagon import HexagonalTileShape

if TYPE_CHECKING:
    import numpy as np

    from repro.tiling.schedule_arrays import ScheduleArrays


@dataclass(frozen=True)
class TileSizes:
    """Tile size parameters ``h`` and ``w_0 .. w_n`` of the hybrid tiling."""

    height: int
    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValueError("tile height h must be non-negative")
        if any(w < 0 for w in self.widths):
            raise ValueError("tile widths must be non-negative")

    @property
    def w0(self) -> int:
        return self.widths[0]

    @staticmethod
    def of(height: int, *widths: int) -> "TileSizes":
        """Convenience constructor: ``TileSizes.of(h, w0, w1, ...)``."""
        return TileSizes(height, tuple(int(w) for w in widths))

    def __str__(self) -> str:
        widths = ", ".join(str(w) for w in self.widths)
        return f"h={self.height}, w=({widths})"


@dataclass(frozen=True, order=True)
class TileCoordinate:
    """Identity of one hybrid tile: ``(T, p, S_0, ..., S_n)``."""

    time_tile: int
    phase: Phase
    space_tiles: tuple[int, ...]

    @property
    def s0_tile(self) -> int:
        return self.space_tiles[0]

    def __str__(self) -> str:
        tiles = ", ".join(str(s) for s in self.space_tiles)
        return f"T={self.time_tile} p={int(self.phase)} S=({tiles})"


@dataclass(frozen=True)
class SchedulePoint:
    """Full schedule coordinates of one statement instance."""

    tile: TileCoordinate
    local_time: int                 # t' (= a, the local logical time)
    local_space: tuple[int, ...]    # (s0' = b, s1', ..., sn')
    statement_index: int
    canonical_point: tuple[int, ...]


class HybridTiling:
    """Hybrid hexagonal/classical tiling of a canonicalised stencil program.

    Parameters
    ----------
    canonical:
        The canonical form produced by :func:`repro.model.preprocess.canonicalize`.
    sizes:
        The tile size parameters ``h, w_0, ..., w_n``.  ``h + 1`` must be a
        multiple of the number of statements so every tile starts with the
        same statement (needed for divergence-free specialised code).
    """

    def __init__(self, canonical: CanonicalForm, sizes: TileSizes) -> None:
        ndim = len(canonical.space_dims)
        if len(sizes.widths) != ndim:
            raise ValueError(
                f"expected {ndim} tile widths (one per space dimension), "
                f"got {len(sizes.widths)}"
            )
        if (sizes.height + 1) % canonical.num_statements:
            raise ValueError(
                f"h + 1 = {sizes.height + 1} must be a multiple of the number of "
                f"statements ({canonical.num_statements}) so that every tile "
                "starts with the same statement (Section 3.3.2)"
            )
        self.canonical = canonical
        self.sizes = sizes
        self._schedule_arrays_cache: ScheduleArrays | None = None
        self._sequential_order_cache: np.ndarray | None = None

        self.cone = DependenceCone.from_distance_vectors(
            canonical.distance_vectors, dim_index=0
        )
        self.shape = HexagonalTileShape(self.cone, sizes.height, sizes.w0)
        self.hex_schedule = HexagonalSchedule(self.shape)

        self.classical: list[ClassicalTiling] = []
        for index in range(1, ndim):
            _, delta1 = canonical.space_distance_bounds(index)
            self.classical.append(
                ClassicalTiling(
                    dim_name=canonical.space_dims[index],
                    delta1=delta1,
                    width=sizes.widths[index],
                    time_period=self.shape.time_period,
                )
            )

    # -- basic derived quantities -----------------------------------------------------

    @property
    def num_statements(self) -> int:
        return self.canonical.num_statements

    @property
    def space_dims(self) -> tuple[str, ...]:
        return self.canonical.space_dims

    @property
    def ndim(self) -> int:
        return len(self.space_dims)

    def time_steps_per_tile(self) -> int:
        """Outer-loop time steps executed by one tile: ``(2h+2) / k``."""
        return self.shape.time_period // self.num_statements

    def iterations_per_full_tile(self) -> int:
        """Statement instances executed by one full (non-boundary) tile.

        This is the quantity the load-to-compute model of Section 3.7 uses;
        for a 3-D stencil with ``δ0 = δ1 = 1`` it equals
        ``2·(1 + 2h + h² + w0·(h+1))·w1·w2``.
        """
        total = self.shape.count()
        for tiling in self.classical:
            total *= tiling.width
        return total

    # -- point assignment ----------------------------------------------------------------

    def assign_batch(
        self, canonical_points: np.ndarray, check_unique: bool = False
    ) -> ScheduleArrays:
        """Schedule coordinates of an ``(N, 1 + ndim)`` array of canonical points.

        Every row ``(l, s0 .. sn)`` is assigned with the hexagonal schedule
        of the ``(l, s0)`` plane and the classical strip-mining of equations
        (14) and (17) of the remaining dimensions, all in elementwise int64
        arithmetic.  ``check_unique`` raises unless exactly one hexagonal
        phase claims every point.
        """
        import numpy as np

        from repro.tiling.schedule_arrays import ScheduleArrays

        points = np.asarray(canonical_points, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != 1 + self.ndim:
            raise ValueError(
                f"expected an (N, {1 + self.ndim}) canonical point array, "
                f"got shape {points.shape}"
            )
        l = points[:, 0]
        hexagon = self.hex_schedule.assign_batch(l, points[:, 1], check_unique)
        phase, time_tile, s0_tile, local_time, s0_local = hexagon
        space_tiles = np.empty((len(points), self.ndim), dtype=np.int64)
        local_space = np.empty((len(points), self.ndim), dtype=np.int64)
        space_tiles[:, 0] = s0_tile
        local_space[:, 0] = s0_local
        for axis, classical in enumerate(self.classical, start=1):
            coordinate = points[:, 1 + axis]
            space_tiles[:, axis] = classical.tile_index(coordinate, local_time)
            local_space[:, axis] = classical.local_coordinate(coordinate, local_time)
        return ScheduleArrays(
            canonical=points,
            statement_index=l % self.num_statements,
            time_tile=time_tile,
            phase=phase,
            space_tiles=space_tiles,
            local_time=local_time,
            local_space=local_space,
        )

    def schedule_arrays(self) -> ScheduleArrays:
        """The full columnar schedule of every statement instance (cached).

        Only intended for the small grids used in validation, testing and the
        functional GPU simulator; production-size grids are analysed with the
        closed-form counts instead.
        """
        cached = self._schedule_arrays_cache
        if cached is None:
            cached = self.assign_batch(self.canonical.instances_array())
            self._schedule_arrays_cache = cached
            self._sequential_order_cache = None
        return cached

    def sequential_order(self) -> np.ndarray:
        """The rows of :meth:`schedule_arrays` in sequential order (cached).

        :meth:`ScheduleArrays.sequential_order` of the memoised schedule,
        sorted once for the uniformity check and the functional simulator.
        """
        arrays = self.schedule_arrays()
        if self._sequential_order_cache is None:
            self._sequential_order_cache = arrays.sequential_order()
        return self._sequential_order_cache

    # -- schedule expressions (Figure 6 / code generation) --------------------------------------

    def schedule_expressions(self, phase: Phase) -> dict[str, QExpr]:
        """Quasi-affine expressions of every output dimension for one phase.

        The expressions are written in terms of the canonical variables
        ``l`` (logical time) and the space dimension names; the code generator
        substitutes the appropriate loop iterators.
        """
        logical = qvar("l")
        expressions: dict[str, QExpr] = {}
        expressions["T"] = self.hex_schedule.time_tile_expr(phase, logical)
        expressions["S0"] = self.hex_schedule.space_tile_expr(
            phase, qvar(self.space_dims[0]), expressions["T"]
        )
        u_expr = self.hex_schedule.local_time_expr(phase, logical)
        for index, tiling in enumerate(self.classical, start=1):
            expressions[f"S{index}"] = tiling.tile_index_expr(
                qvar(self.space_dims[index]), u_expr
            )
        expressions["t_local"] = u_expr
        expressions["s0_local"] = self.hex_schedule.local_space_expr(
            phase, qvar(self.space_dims[0]), expressions["T"]
        )
        for index, tiling in enumerate(self.classical, start=1):
            expressions[f"s{index}_local"] = tiling.local_coordinate_expr(
                qvar(self.space_dims[index]), u_expr
            )
        return expressions

    def describe(self) -> str:
        """A human-readable summary of the tiling (used by the CLI and docs)."""
        lines = [
            f"hybrid tiling of {self.canonical.program.name}",
            f"  statements            : {self.num_statements}",
            f"  hexagonal dimension   : {self.space_dims[0]}",
            f"  cone                  : {self.cone}",
            f"  tile sizes            : {self.sizes}",
            f"  time period (2h+2)    : {self.shape.time_period}",
            f"  space period          : {self.shape.space_period}",
            f"  iterations / full tile: {self.iterations_per_full_tile()}",
            f"  time steps / tile     : {self.time_steps_per_tile()}",
        ]
        for tiling in self.classical:
            lines.append(f"  classical {tiling.dim_name:>4}      : {tiling}")
        return "\n".join(lines)

    def __getstate__(self) -> dict:
        """Drop the (re-derivable) schedule memos when pickling."""
        state = self.__dict__.copy()
        state["_schedule_arrays_cache"] = None
        state["_sequential_order_cache"] = None
        return state

    def __repr__(self) -> str:
        return f"HybridTiling({self.canonical.program.name}, {self.sizes})"

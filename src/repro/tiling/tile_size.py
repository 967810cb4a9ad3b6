"""Tile size selection based on the load-to-compute ratio (Section 3.7).

The model follows the paper: for a generic (non-boundary) tile it computes

* the number of statement instances executed by the tile,
* the number of values loaded from global memory by the tile, and
* the shared memory staging the tile's footprint occupies,

all as exact integer functions of the tile size parameters ``h, w_0, ...,
w_n``.  Loads are modelled as the size of the rectangular shared-memory box
PPCG allocates for the tile (Section 4.2); with inter-tile reuse enabled
(Section 4.2.2) only the part of the box that was not already loaded by the
preceding tile along the innermost (classically tiled, sequentially
executed) dimension is counted.

:meth:`TileSizeModel.table` evaluates the three figures over the whole
search grid at once, as NumPy arrays broadcast over its axes: the heights
:data:`HEIGHTS`, the widths :data:`WIDTHS` for ``w_0`` and every middle
dimension, and for a 2-D+ stencil an innermost width of 1, 2 or 4 warps, so
full warps execute, accesses are stride-one and loads are cache-line
aligned (Section 2).  Each hexagon is evaluated once per ``(h, w_0)``.  One
prune rule applies: a grid point is counted once, under the first rule it
fails,

1. ``legality`` — ``h + 1`` is not a multiple of the statement count
   (Section 3.3), or ``w_0`` is below the convexity minimum of condition (1);
2. ``shared_memory_overflow`` — the footprint exceeds the device's shared
   memory.

:func:`select_tile_sizes` picks the surviving point with the smallest
load-to-compute ratio, and the autotuner's candidate space
(:class:`repro.tuning.space.CandidateSpace`) is the same surviving points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from repro.model.preprocess import CanonicalForm
from repro.tiling.cone import DependenceCone
from repro.tiling.hexagon import minimal_width, row_bounds
from repro.tiling.hybrid import TileSizes

if TYPE_CHECKING:
    import numpy as np
    import numpy.typing as npt

    from repro.gpu.device import GPUDevice

#: Reasons a grid point is pruned, shared with the autotuner's candidate
#: space (:mod:`repro.tuning.space`) so both report the same vocabulary in
#: ``hexcc inspect``/``hexcc tune``.
PRUNE_SHARED_MEMORY = "shared_memory_overflow"
PRUNE_LEGALITY = "legality"

#: Tile heights ``h`` of the search grid.
HEIGHTS = tuple(range(17))
#: Widths of ``w_0`` and of every middle space dimension in the search grid.
WIDTHS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32)
#: Innermost widths of a 2-D+ stencil, in warps.
INNER_WARPS = (1, 2, 4)


@dataclass(frozen=True)
class TileCostEstimate:
    """Cost figures of one tile size choice."""

    sizes: TileSizes
    iterations: int
    loads: int
    shared_memory_bytes: int
    #: When produced by :func:`select_tile_sizes`, the number of grid points
    #: pruned per reason plus the number ``evaluated`` — why the rest of the
    #: grid was rejected.  Excluded from equality so estimates from different
    #: searches still compare by their cost figures.
    rejections: Mapping[str, int] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def load_to_compute(self) -> float:
        """Loads per executed iteration — the figure of merit of Section 3.7."""
        if self.iterations == 0:
            return float("inf")
        return self.loads / self.iterations

    def __str__(self) -> str:
        return (
            f"TileCostEstimate({self.sizes}, iterations={self.iterations}, "
            f"loads={self.loads}, shared={self.shared_memory_bytes}B, "
            f"ratio={self.load_to_compute:.3f})"
        )


@dataclass(frozen=True)
class TileTable:
    """The §3.7 figures of every point of the tile-size search grid.

    The grid is the product of :attr:`axes` — heights, ``w_0``, the middle
    widths and (2-D+ stencils) the innermost width.  Every array holds one
    entry per grid point, flattened in row-major (grid) order.
    """

    axes: tuple[np.ndarray, ...]
    iterations: np.ndarray
    loads: np.ndarray
    shared_memory_bytes: np.ndarray
    #: Whether the point survives both prune rules.
    legal: np.ndarray
    #: Points pruned per reason, plus the number of legal points (``evaluated``).
    rejections: Mapping[str, int]

    def rows(self) -> np.ndarray:
        """Grid indices of the legal points, in grid order."""
        import numpy as np

        return np.flatnonzero(self.legal)

    def sizes(self, rows: np.ndarray) -> list[TileSizes]:
        """The tile sizes of the grid points ``rows``."""
        import numpy as np

        coords = np.unravel_index(rows, tuple(len(axis) for axis in self.axes))
        values = np.stack(
            [axis[index] for axis, index in zip(self.axes, coords)], axis=-1
        ).tolist()
        return [TileSizes(height, tuple(widths)) for height, *widths in values]

    def estimate(self, row: int) -> TileCostEstimate:
        """The cost figures of grid point ``row``."""
        import numpy as np

        (sizes,) = self.sizes(np.array([row]))
        return TileCostEstimate(
            sizes=sizes,
            iterations=int(self.iterations[row]),
            loads=int(self.loads[row]),
            shared_memory_bytes=int(self.shared_memory_bytes[row]),
        )


class TileSizeModel:
    """Analytic cost model of a hybrid tile for one stencil program."""

    def __init__(self, canonical: CanonicalForm, element_size: int = 4) -> None:
        self.canonical = canonical
        self.element_size = element_size
        self.ndim = len(canonical.space_dims)
        self.cone = DependenceCone.from_distance_vectors(
            canonical.distance_vectors, dim_index=0
        )
        # Slope δ1 of every classically tiled dimension s1 .. sn.
        self._skews = [
            canonical.space_distance_bounds(index)[1]
            for index in range(1, self.ndim)
        ]
        #: Per-field, per-dimension ``(lower, upper)`` read offsets, fields
        #: in order of their first read.
        self.read_radii = self._compute_read_radii()

    def _compute_read_radii(self) -> dict[str, list[tuple[int, int]]]:
        """Per-field, per-dimension (negative, positive) read radii."""
        radii: dict[str, list[tuple[int, int]]] = {}
        for statement in self.canonical.program.statements:
            for read in statement.reads:
                entry = radii.setdefault(
                    read.field, [(0, 0)] * self.canonical.program.ndim
                )
                for axis, offset in enumerate(read.offsets):
                    low, high = entry[axis]
                    entry[axis] = (min(low, offset), max(high, offset))
        return radii

    def footprint(
        self, height: npt.ArrayLike, widths: Sequence[npt.ArrayLike]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Iterations and footprint box of a full tile, broadcast over the sizes.

        ``height`` and every entry of ``widths`` (``w_0 .. w_n``) are
        integers or mutually broadcastable arrays.  Returns the statement
        instances per tile and, per space dimension, the data-space extent of
        the tile's footprint box without the read halo: the hexagon's ``b``
        range along ``s_0``, and ``w_i + ⌊δ1·(2h+1)⌋`` along the classically
        tiled ``s_i``.  The hexagon rows are those of :func:`row_bounds`.
        """
        import numpy as np

        h = np.asarray(height, dtype=np.int64)
        w0 = np.asarray(widths[0], dtype=np.int64)
        a = np.arange(2 * int(h.max()) + 2, dtype=np.int64)
        lower, upper = row_bounds(
            self.cone.delta0, self.cone.delta1, h[..., None], w0[..., None], a
        )
        in_tile = a <= 2 * h[..., None] + 1
        iterations = np.where(in_tile, upper - lower + 1, 0).sum(axis=-1)
        b_min = np.where(in_tile, lower, np.iinfo(np.int64).max).min(axis=-1)
        b_max = np.where(in_tile, upper, np.iinfo(np.int64).min).max(axis=-1)
        extents = [b_max - b_min + 1]
        for width, skew in zip(widths[1:], self._skews):
            w = np.asarray(width, dtype=np.int64)
            iterations = iterations * w
            extents.append(w + (skew.numerator * (2 * h + 1)) // skew.denominator)
        return iterations, extents

    def _figures(
        self,
        height: npt.ArrayLike,
        widths: Sequence[npt.ArrayLike],
        inter_tile_reuse: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Iterations, loads and shared bytes, broadcast over the sizes."""
        import numpy as np

        iterations, extents = self.footprint(height, widths)
        loads: np.ndarray = np.zeros((), dtype=np.int64)
        elements: np.ndarray = np.zeros((), dtype=np.int64)
        for radii in self.read_radii.values():
            box = [
                extent + (high - low) for extent, (low, high) in zip(extents, radii)
            ]
            elements = elements + math.prod(box)
            if inter_tile_reuse and self.ndim > 1:
                # Only the w_inner fresh columns along the innermost dimension.
                loads = loads + math.prod(box[:-1]) * np.asarray(widths[-1])
            else:
                loads = loads + math.prod(box)
        return iterations, loads, elements * self.element_size

    def table(self, device: GPUDevice, inter_tile_reuse: bool = True) -> TileTable:
        """Every point of the search grid for ``device``, pruned by one rule."""
        import numpy as np

        axes = [np.array(HEIGHTS), np.array(WIDTHS)]
        if self.ndim > 1:
            axes += [np.array(WIDTHS)] * (self.ndim - 2)
            axes.append(device.warp_size * np.array(INNER_WARPS))
        shape = tuple(len(axis) for axis in axes)
        # Open-mesh views: each axis varies along its own grid dimension.
        height, *widths = np.ix_(*axes)
        iterations, loads, shared = self._figures(height, widths, inter_tile_reuse)
        min_w0 = np.array(
            [minimal_width(self.cone.delta0, self.cone.delta1, h) for h in HEIGHTS]
        ).reshape(height.shape)
        legal = np.broadcast_to(
            ((height + 1) % self.canonical.num_statements == 0) & (widths[0] >= min_w0),
            shape,
        ).ravel()
        fits = np.broadcast_to(shared <= device.shared_memory_per_sm, shape).ravel()
        return TileTable(
            axes=tuple(axes),
            iterations=np.broadcast_to(iterations, shape).ravel(),
            loads=np.broadcast_to(loads, shape).ravel(),
            shared_memory_bytes=np.broadcast_to(shared, shape).ravel(),
            legal=legal & fits,
            rejections={
                PRUNE_SHARED_MEMORY: int(np.count_nonzero(legal & ~fits)),
                PRUNE_LEGALITY: int(np.count_nonzero(~legal)),
                "evaluated": int(np.count_nonzero(legal & fits)),
            },
        )

    def estimate(self, sizes: TileSizes, inter_tile_reuse: bool = True) -> TileCostEstimate:
        """Cost figures of one tile size choice (a one-point table)."""
        if len(sizes.widths) != self.ndim:
            raise ValueError(
                f"expected {self.ndim} tile widths, got {len(sizes.widths)}"
            )
        needed = minimal_width(self.cone.delta0, self.cone.delta1, sizes.height)
        if sizes.w0 < needed:
            raise ValueError(
                f"width w0={sizes.w0} violates the convexity condition (1); "
                f"need w0 >= {needed} for h={sizes.height}, cone={self.cone}"
            )
        iterations, loads, shared = self._figures(
            sizes.height, sizes.widths, inter_tile_reuse
        )
        return TileCostEstimate(
            sizes=sizes,
            iterations=int(iterations),
            loads=int(loads),
            shared_memory_bytes=int(shared),
        )

    # -- the closed-form of Section 3.7 --------------------------------------------------------

    def closed_form_iterations_3d(self, sizes: TileSizes) -> int:
        """``2·(1 + 2h + h² + w0·(h+1))·w1·w2`` — only valid for δ0 = δ1 = 1.

        Exposed so the tests can check the enumerative count against the
        closed form quoted in the paper.
        """
        if self.cone.delta0 != 1 or self.cone.delta1 != 1:
            raise ValueError("the closed form of §3.7 assumes δ0 = δ1 = 1")
        if len(sizes.widths) != 3:
            raise ValueError("the closed form of §3.7 is for 3D stencils")
        h = sizes.height
        w0 = sizes.w0
        return 2 * (1 + 2 * h + h * h + w0 * (h + 1)) * sizes.widths[1] * sizes.widths[2]


def select_tile_sizes(
    canonical: CanonicalForm, device: GPUDevice, inter_tile_reuse: bool = True
) -> TileCostEstimate:
    """The legal tile sizes with the best load-to-compute ratio (Section 3.7).

    The returned estimate carries the ``rejections`` of the search table:
    every grid point is counted once, so the counts sum to the grid size.
    Raises :class:`ValueError` when no legal point fits ``device``.
    """
    import numpy as np

    table = TileSizeModel(canonical).table(device, inter_tile_reuse)
    rows = table.rows()
    if not len(rows):
        pruned = table.rejections
        raise ValueError(
            "no legal tile size of the search grid fits the "
            f"{device.shared_memory_per_sm}-byte shared memory of the "
            f"{device.name} (pruned: "
            f"{PRUNE_SHARED_MEMORY}={pruned[PRUNE_SHARED_MEMORY]}, "
            f"{PRUNE_LEGALITY}={pruned[PRUNE_LEGALITY]})"
        )
    # Lowest ratio, then more iterations, then grid order (a stable sort).
    iterations = table.iterations[rows]
    best = rows[np.lexsort((-iterations, table.loads[rows] / iterations))[0]]
    return replace(table.estimate(int(best)), rejections=table.rejections)

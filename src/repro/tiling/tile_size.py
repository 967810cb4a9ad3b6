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

:meth:`TileSizeModel.table` evaluates the three figures at every point of
the search grid, one pass per height in plain Python integers: the heights
:data:`HEIGHTS`, the widths :data:`WIDTHS` for ``w_0`` and every middle
dimension, and for a 2-D+ stencil an innermost width of 1, 2 or 4 warps, so
full warps execute, accesses are stride-one and loads are cache-line
aligned (Section 2).  For a fixed ``h`` the iterations and each field's
footprint box are products of one factor per axis: widening ``w_0`` by one
adds a point to each of the ``2h + 2`` hexagon rows and one column to its
``b`` extent, and the box over ``s_1 .. s_n`` does not depend on ``w_0``.
One prune rule applies: a grid point is counted once, under the first rule
it fails,

1. ``legality`` — ``h + 1`` is not a multiple of the statement count
   (Section 3.3), or ``w_0`` is below the convexity minimum of condition (1);
2. ``shared_memory_overflow`` — the footprint exceeds the device's shared
   memory.

:func:`select_tile_sizes` picks the surviving point with the smallest
load-to-compute ratio, and the autotuner's candidate space
(:class:`repro.tuning.space.CandidateSpace`) is the same surviving points.
"""

from __future__ import annotations

import heapq
import math
from itertools import compress
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro._record import dataclass, field, replace
from repro.model.preprocess import CanonicalForm
from repro.tiling.cone import DependenceCone
from repro.tiling.hexagon import minimal_width, row_bounds
from repro.tiling.hybrid import TileSizes

if TYPE_CHECKING:
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
    #: When produced by :func:`select_tile_sizes`, the second-best legal grid
    #: point by the same key (``None`` when only one point is legal).
    #: Excluded from equality like ``rejections``.
    runner_up: TileCostEstimate | None = field(
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
    widths and (2-D+ stencils) the innermost width.  Every list holds one
    entry per grid point, in row-major (grid) order.
    """

    axes: tuple[tuple[int, ...], ...]
    iterations: list[int]
    loads: list[int]
    shared_memory_bytes: list[int]
    #: Whether the point survives both prune rules.
    legal: list[bool]
    #: Points pruned per reason, plus the number of legal points (``evaluated``).
    rejections: Mapping[str, int]

    def rows(self) -> list[int]:
        """Grid indices of the legal points, in grid order."""
        return list(compress(range(len(self.legal)), self.legal))

    def sizes(self, rows: Iterable[int]) -> list[TileSizes]:
        """The tile sizes of the grid points ``rows``."""
        sizes: list[TileSizes] = []
        for row in rows:
            values: list[int] = []
            rest = row
            for axis in reversed(self.axes):
                rest, index = divmod(rest, len(axis))
                values.append(axis[index])
            height, *widths = reversed(values)
            sizes.append(TileSizes(height, tuple(widths)))
        return sizes

    def estimate(self, row: int) -> TileCostEstimate:
        """The cost figures of grid point ``row``."""
        (sizes,) = self.sizes([row])
        return TileCostEstimate(
            sizes=sizes,
            iterations=self.iterations[row],
            loads=self.loads[row],
            shared_memory_bytes=self.shared_memory_bytes[row],
        )


def _fold(columns: Sequence[Sequence[int]]) -> list[int]:
    """Products over the open mesh of ``columns``, in row-major order.

    One factor per axis, folded in one axis at a time, as an ``np.ix_``
    broadcast would multiply them.
    """
    products = [1]
    for column in columns:
        products = [product * factor for product in products for factor in column]
    return products


def _pointwise_sum(lists: list[list[int]]) -> list[int]:
    """Entry-by-entry sum of equally long lists (one list per field)."""
    return lists[0] if len(lists) == 1 else [sum(entry) for entry in zip(*lists)]


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

    def _factors(
        self, height: int, width_axes: Sequence[Sequence[int]]
    ) -> tuple[list[int], list[list[int]]]:
        """Per-axis factors of the full tiles of height ``h`` over width axes.

        ``width_axes`` holds the ``w_0 .. w_n`` values to evaluate.  Returns
        the hexagon's point count per ``w_0`` and, per space dimension and
        width, the footprint extent without the read halo: the hexagon's
        ``b`` range along ``s_0``, and ``w_i + ⌊δ1·(2h+1)⌋`` along the
        classically tiled ``s_i``.  The hexagon rows are those of
        :func:`row_bounds`; widening ``w_0`` raises every upper bound by one
        and leaves the lower bounds, so both hexagon figures are linear in
        ``w_0``.  The count sums ``upper - lower + 1`` over every row, also
        where a row of a hexagon narrower than condition (1) allows is empty.
        """
        lower, upper = row_bounds(self.cone.delta0, self.cone.delta1, height, 0)
        points = sum(upper) - sum(lower) + len(lower)
        extent = max(upper) - min(lower) + 1
        w0s, *inner_axes = width_axes
        counts = [points + (2 * height + 2) * w0 for w0 in w0s]
        extents = [[extent + w0 for w0 in w0s]]
        for axis, skew in zip(inner_axes, self._skews):
            lean = (skew.numerator * (2 * height + 1)) // skew.denominator
            extents.append([width + lean for width in axis])
        return counts, extents

    def footprint(self, height: int, widths: Sequence[int]) -> tuple[int, list[int]]:
        """Iterations and footprint box of one full tile.

        Returns the statement instances of the tile of height ``h`` and
        widths ``w_0 .. w_n`` and, per space dimension, the data-space extent
        of its footprint box without the read halo (see :meth:`_factors`).
        """
        (count,), extents = self._factors(height, [[width] for width in widths])
        return math.prod(widths[1:], start=count), [extent for (extent,) in extents]

    def _figures(
        self, axes: Sequence[Sequence[int]], inter_tile_reuse: bool
    ) -> tuple[list[int], list[int], list[int]]:
        """Iterations, loads and shared bytes over the grid of ``axes``.

        ``axes`` holds the heights and the ``w_0 .. w_n`` values; the figures
        are listed in row-major order, one pass per height.
        """
        heights, *width_axes = axes
        iterations: list[int] = []
        loads: list[int] = []
        elements: list[int] = []
        for height in heights:
            counts, extents = self._factors(height, width_axes)
            iterations += _fold([counts, *width_axes[1:]])
            field_elements: list[list[int]] = []
            field_loads: list[list[int]] = []
            for radii in self.read_radii.values():
                box = [
                    [extent + high - low for extent in column]
                    for column, (low, high) in zip(extents, radii)
                ]
                field_elements.append(_fold(box))
                if inter_tile_reuse and self.ndim > 1:
                    # Only the w_inner fresh columns along the innermost dimension.
                    box[-1] = list(width_axes[-1])
                field_loads.append(_fold(box))
            elements += _pointwise_sum(field_elements)
            loads += _pointwise_sum(field_loads)
        element_size = self.element_size
        return iterations, loads, [count * element_size for count in elements]

    def table(self, device: GPUDevice, inter_tile_reuse: bool = True) -> TileTable:
        """Every point of the search grid for ``device``, pruned by one rule."""
        axes: list[tuple[int, ...]] = [HEIGHTS, WIDTHS]
        if self.ndim > 1:
            axes += [WIDTHS] * (self.ndim - 2)
            axes.append(tuple(device.warp_size * warps for warps in INNER_WARPS))
        iterations, loads, shared = self._figures(axes, inter_tile_reuse)
        # Rule 1 holds per (h, w0), for every inner width alike.
        inner = math.prod(len(axis) for axis in axes[2:])
        rule_1: list[bool] = []
        for height in HEIGHTS:
            divides = (height + 1) % self.canonical.num_statements == 0
            min_w0 = minimal_width(self.cone.delta0, self.cone.delta1, height)
            for w0 in WIDTHS:
                rule_1 += [divides and w0 >= min_w0] * inner
        limit = device.shared_memory_per_sm
        legal = [ok and size <= limit for ok, size in zip(rule_1, shared)]
        passed, evaluated = sum(rule_1), sum(legal)
        return TileTable(
            axes=tuple(axes),
            iterations=iterations,
            loads=loads,
            shared_memory_bytes=shared,
            legal=legal,
            rejections={
                PRUNE_SHARED_MEMORY: passed - evaluated,
                PRUNE_LEGALITY: len(rule_1) - passed,
                "evaluated": evaluated,
            },
        )

    def estimate(self, sizes: TileSizes, inter_tile_reuse: bool = True) -> TileCostEstimate:
        """Cost figures of one tile size choice (a one-point grid)."""
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
        (iterations,), (loads,), (shared,) = self._figures(
            [[sizes.height], *([width] for width in sizes.widths)], inter_tile_reuse
        )
        return TileCostEstimate(
            sizes=sizes,
            iterations=iterations,
            loads=loads,
            shared_memory_bytes=shared,
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
    It also carries the ``runner_up``, the second-best legal point.
    Raises :class:`ValueError` when no legal point fits ``device``.
    """
    table = TileSizeModel(canonical).table(device, inter_tile_reuse)
    rows = table.rows()
    if not rows:
        pruned = table.rejections
        raise ValueError(
            "no legal tile size of the search grid fits the "
            f"{device.shared_memory_per_sm}-byte shared memory of the "
            f"{device.name} (pruned: "
            f"{PRUNE_SHARED_MEMORY}={pruned[PRUNE_SHARED_MEMORY]}, "
            f"{PRUNE_LEGALITY}={pruned[PRUNE_LEGALITY]})"
        )
    # Lowest ratio, then more iterations, then grid order (nsmallest is
    # stable: it equals sorted(...)[:2]).
    iterations, loads = table.iterations, table.loads
    best, *runner_up = heapq.nsmallest(
        2, rows, key=lambda row: (loads[row] / iterations[row], -iterations[row])
    )
    return replace(
        table.estimate(best),
        rejections=table.rejections,
        runner_up=table.estimate(runner_up[0]) if runner_up else None,
    )

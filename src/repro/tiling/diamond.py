"""Diamond tiling of the ``(l, s0)`` plane, for comparison with hexagonal tiling.

Diamond tiling [Bandishti et al. 2012] is the closest prior technique to
hexagonal tiling (Section 5 of the paper).  The comparison the paper (and the
companion HiStencils 2014 note [9]) makes is qualitative:

* diamond tiles always have a *narrow peak* — a single iteration at the top
  and bottom of each tile — so the amount of fine-grained parallelism cannot
  be tuned independently of the tile height;
* even when all diamond tiles have the same rational shape, the number of
  *integer* points they contain can differ from tile to tile, which induces
  thread divergence on a GPU;
* the tile height and width are coupled (both derive from the same diagonal
  extent), whereas hexagonal tiling chooses ``h`` and ``w0`` independently.

This module implements classic diamond tiling with unit slopes so the
benchmarks can measure those differences quantitatively.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro._record import dataclass
from repro.tiling.cone import DependenceCone


@dataclass(frozen=True)
class DiamondTileAssignment:
    """Tile coordinates of a point under diamond tiling."""

    wave: int        # anti-diagonal tile index (l + s0 direction)
    position: int    # diagonal tile index (l - s0 direction)


class DiamondTiling:
    """Diamond tiling of the ``(l, s0)`` plane with unit dependence slopes.

    The plane is tiled by the two skewed strip-minings::

        D0 = floor((s0 + l) / size)
        D1 = floor((s0 - l) / size)

    Each (D0, D1) pair is one diamond-shaped tile of diagonal extent ``size``.
    Tiles on the same ``D0 + D1`` wavefront can execute concurrently.
    """

    def __init__(self, size: int, cone: DependenceCone | None = None) -> None:
        if size <= 0:
            raise ValueError("diamond tile size must be positive")
        if cone is not None and (cone.delta0 > 1 or cone.delta1 > 1):
            raise ValueError(
                "unit-slope diamond tiling requires dependence slopes <= 1"
            )
        self.size = size
        self.cone = cone or DependenceCone.from_distance_vectors([(1, 1), (1, -1)])

    # -- assignment -------------------------------------------------------------------

    def assign(self, l: int, s0: int) -> DiamondTileAssignment:
        """Tile containing the canonical point ``(l, s0)``."""
        return DiamondTileAssignment(
            wave=(s0 + l) // self.size,
            position=(s0 - l) // self.size,
        )

    def wavefront(self, assignment: DiamondTileAssignment) -> int:
        """Index of the sequential wavefront the tile belongs to."""
        return assignment.wave - assignment.position

    def tile_points(
        self, assignment: DiamondTileAssignment, l_range: tuple[int, int]
    ) -> Iterator[tuple[int, int]]:
        """Points of a tile within the given logical-time range."""
        l_lo, l_hi = l_range
        for l in range(l_lo, l_hi + 1):
            s_low = assignment.wave * self.size - l
            s_high = s_low + self.size - 1
            d_low = assignment.position * self.size + l
            d_high = d_low + self.size - 1
            lo = max(s_low, d_low)
            hi = min(s_high, d_high)
            for s0 in range(lo, hi + 1):
                yield (l, s0)

    # -- the properties the paper contrasts with hexagonal tiling ---------------------------

    def tile_point_counts(self, l_extent: int, s_extent: int) -> dict[DiamondTileAssignment, int]:
        """Exact integer point count of every tile touching a window.

        Used to demonstrate that diamond tiles do *not* all contain the same
        number of integer points (Section 2 of the paper), unlike hexagonal
        tiles.
        """
        counts: dict[DiamondTileAssignment, int] = {}
        for l in range(l_extent):
            for s0 in range(s_extent):
                assignment = self.assign(l, s0)
                counts[assignment] = counts.get(assignment, 0) + 1
        return counts

    def interior_tile_counts(self, l_extent: int, s_extent: int) -> list[int]:
        """Point counts of tiles fully inside the window (no boundary effects)."""
        counts = []
        margin = self.size
        for assignment, count in self.tile_point_counts(l_extent, s_extent).items():
            points = list(self.tile_points(assignment, (0, l_extent - 1)))
            if not points:
                continue
            ls = [p[0] for p in points]
            ss = [p[1] for p in points]
            if (
                min(ls) >= margin
                and max(ls) < l_extent - margin
                and min(ss) >= margin
                and max(ss) < s_extent - margin
            ):
                counts.append(count)
        return counts

    def peak_width(self) -> int:
        """Width of the narrowest row of a diamond tile (always 1 or 2).

        Contrast with :meth:`repro.tiling.hexagon.HexagonalTileShape.peak_width`,
        which is ``w0 + 1`` and therefore adjustable.
        """
        widths = []
        assignment = DiamondTileAssignment(0, 0)
        for l in range(0, 2 * self.size):
            row = [p for p in self.tile_points(assignment, (l, l))]
            if row:
                widths.append(len(row))
        return min(widths) if widths else 0

    def __repr__(self) -> str:
        return f"DiamondTiling(size={self.size})"

"""Brute-force oracles for the hybrid schedule and the §3.7 tile-size model.

They share no code with the array paths of ``repro.tiling``: every instance is
assigned with the scalar hexagonal schedule (``HexagonalSchedule.assign``,
equations (2)-(5)) plus equations (14) and (17), dependent pairs are ordered
by the GPU execution model of Section 4.1, the hexagon rows come from the
constraints (6)-(13) in exact rational arithmetic, and the tile-size search
estimates one grid point at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from repro.tiling.cone import DependenceCone
from repro.tiling.hybrid import TileSizes
from repro.tiling.tile_size import HEIGHTS, INNER_WARPS, WIDTHS
from repro.tiling.validate import ScheduleValidationError, ValidationReport


def instances(program):
    """Canonical points ``(l, s0, .., sn)``: every interior point, every step."""
    k = program.num_statements
    for t in range(program.time_steps):
        for index, statement in enumerate(program.statements):
            ranges = (
                range(lower, size - upper)
                for size, lower, upper in zip(
                    program.sizes, statement.lower_margin, statement.upper_margin
                )
            )
            for space in itertools.product(*ranges):
                yield (k * t + index, *space)


def assign(tiling, point):
    """Schedule row ``(T, p, S0..Sn, t', s'0..s'n)`` of one canonical point."""
    hexagon = tiling.hex_schedule.assign(point[0], point[1], check_unique=True)
    u = hexagon.local_time
    tiles, local = [hexagon.space_tile], [hexagon.local_space]
    for classical, s in zip(tiling.classical, point[2:]):
        # Equations (14) and (17), scaled by the denominator of the slope.
        scale, skew = classical.delta1.denominator, classical.delta1.numerator
        tiles.append((scale * s + skew * u) // (scale * classical.width))
        local.append((scale * s + skew * u) % (scale * classical.width))
    return (hexagon.time_tile, int(hexagon.phase), *tiles, u, *local)


def precedes(source, sink, ndim):
    """Section 4.1: ``(T, p)`` is sequential, ``S0`` blocks run in parallel,
    and ``(S1..Sn, t')`` is sequential inside a block."""
    if source[:2] != sink[:2]:
        return source[:2] < sink[:2]
    return source[2] == sink[2] and source[3 : 3 + ndim] < sink[3 : 3 + ndim]


def row_range(shape, a):
    """Integer ``b`` of hexagon row ``a``, from (6), (8), (10) and (12)."""
    h, w0, d0, d1 = shape.height, shape.width, shape.delta0, shape.delta1
    d0h, d1h = math.floor(d0 * h), math.floor(d1 * h)
    lower = max(
        d0 * (a - 2 * h - 1) + d0h,
        d1 * (h - a) - Fraction(d1.denominator - 1, d1.denominator),
    )
    upper = min(
        d1 * (2 * h + 1 - a) + d0h + w0,
        d0 * (a - h) + d0h + w0 + d1h + Fraction(d0.denominator - 1, d0.denominator),
    )
    return range(math.ceil(lower), math.floor(upper) + 1)


def validate(tiling):
    """The :class:`ValidationReport` of ``validate_hybrid_tiling``, point by point."""
    canonical = tiling.canonical
    k = canonical.num_statements
    names = [statement.name for statement in canonical.program.statements]
    schedule = {point: assign(tiling, point) for point in instances(canonical.program)}
    report = ValidationReport(instances_checked=len(schedule))
    for sink, dependence in itertools.product(schedule, canonical.dependences):
        source = tuple(c - d for c, d in zip(sink, dependence.distance))
        if (
            source not in schedule
            or names[source[0] % k] != dependence.source
            or names[sink[0] % k] != dependence.sink
        ):
            continue
        if not precedes(schedule[source], schedule[sink], tiling.ndim):
            raise ScheduleValidationError(f"{dependence}: {source} runs after {sink}")
        report.dependences_checked += 1
    rows = range(2 * tiling.shape.height + 2)
    hexagon = sum(len(row_range(tiling.shape, a)) for a in rows)
    expected = math.prod(tiling.sizes.widths[1:], start=hexagon)
    counts = Counter(row[: 2 + tiling.ndim] for row in schedule.values()).values()
    if max(counts) > expected:
        raise ScheduleValidationError(f"a tile holds more than {expected} points")
    report.full_tiles = sum(count == expected for count in counts)
    report.partial_tiles = len(counts) - report.full_tiles
    return report


# -- the §3.7 tile-size model, one grid point at a time ----------------------


@functools.cache
def hexagon(cone, height, w0):
    """Point count and ``b``-extent of one hexagon, from :func:`row_range`."""
    shape = SimpleNamespace(
        height=height, width=w0, delta0=cone.delta0, delta1=cone.delta1
    )
    rows = [row_range(shape, a) for a in range(2 * height + 2)]
    extent = max(row[-1] for row in rows) - min(row[0] for row in rows) + 1
    return sum(len(row) for row in rows), extent


@functools.cache
def convex(cone, height, w0):
    """Condition (1): ``w0 >= max(δ0 + {δ0·h}, δ1 + {δ1·h}) - 1``."""
    def fractional(value):
        return value - math.floor(value)

    return w0 >= max(
        cone.delta0 + fractional(cone.delta0 * height),
        cone.delta1 + fractional(cone.delta1 * height),
    ) - 1


@dataclass
class Search:
    """The result of :meth:`TileModel.search`."""

    #: Grid points in grid order.
    grid: list
    #: ``sizes -> (iterations, loads, shared bytes)`` of every grid point
    #: that passes the legality rule.
    figures: dict
    #: Points that also fit the device, in grid order.
    legal: list
    rejections: dict
    best: TileSizes | None
    #: The second-best legal point by the same key.
    runner_up: TileSizes | None


class TileModel:
    """The scalar §3.7 model of one canonical program."""

    def __init__(self, canonical):
        self.canonical = canonical
        self.ndim = len(canonical.space_dims)
        self.cone = DependenceCone.from_distance_vectors(canonical.distance_vectors)
        self.skews = [
            canonical.space_distance_bounds(index)[1] for index in range(1, self.ndim)
        ]
        self.radii = {}
        for statement in canonical.program.statements:
            for read in statement.reads:
                low, high = self.radii.setdefault(
                    read.field, ([0] * self.ndim, [0] * self.ndim)
                )
                for axis, offset in enumerate(read.offsets):
                    low[axis] = min(low[axis], offset)
                    high[axis] = max(high[axis], offset)

    def estimate(self, sizes, inter_tile_reuse):
        """``(iterations, loads, shared bytes)`` of one full tile."""
        count, extent = hexagon(self.cone, sizes.height, sizes.w0)
        extents = [extent] + [
            width + math.floor(skew * (2 * sizes.height + 1))
            for width, skew in zip(sizes.widths[1:], self.skews)
        ]
        loads = elements = 0
        for low, high in self.radii.values():
            box = [extent + hi - lo for extent, lo, hi in zip(extents, low, high)]
            elements += math.prod(box)
            if inter_tile_reuse and len(box) > 1:
                loads += math.prod(box[:-1]) * sizes.widths[-1]
            else:
                loads += math.prod(box)
        return math.prod(sizes.widths[1:], start=count), loads, 4 * elements

    def search(self, device, inter_tile_reuse):
        """Estimate every grid point; prune and pick like ``select_tile_sizes``."""
        axes = [HEIGHTS, WIDTHS]
        if self.ndim > 1:
            inner = [device.warp_size * warps for warps in INNER_WARPS]
            axes += [WIDTHS] * (self.ndim - 2) + [inner]
        grid = [TileSizes(h, tuple(widths)) for h, *widths in itertools.product(*axes)]
        figures, legal = {}, []
        rejections = {"shared_memory_overflow": 0, "legality": 0, "evaluated": 0}
        best = best_key = runner_up = runner_up_key = None
        for sizes in grid:
            if (sizes.height + 1) % self.canonical.num_statements or not convex(
                self.cone, sizes.height, sizes.w0
            ):
                rejections["legality"] += 1
                continue
            figures[sizes] = iterations, loads, shared = self.estimate(
                sizes, inter_tile_reuse
            )
            if shared > device.shared_memory_per_sm:
                rejections["shared_memory_overflow"] += 1
                continue
            rejections["evaluated"] += 1
            legal.append(sizes)
            # Lower ratio, then more iterations; the first in grid order wins ties.
            key = (loads / iterations, -iterations)
            if best is None or key < best_key:
                runner_up, runner_up_key = best, best_key
                best, best_key = sizes, key
            elif runner_up is None or key < runner_up_key:
                runner_up, runner_up_key = sizes, key
        return Search(grid, figures, legal, rejections, best, runner_up)

"""Brute-force oracle for the hybrid schedule, one statement instance at a time.

It shares no code with the array path of ``repro.tiling``: every instance is
assigned with the scalar hexagonal schedule (``HexagonalSchedule.assign``,
equations (2)-(5)) plus equations (14) and (17), dependent pairs are ordered
by the GPU execution model of Section 4.1, and the hexagon rows come from the
constraints (6)-(13) in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

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

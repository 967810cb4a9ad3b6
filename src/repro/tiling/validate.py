"""Validation of hybrid tilings: coverage, legality and tile uniformity.

These checks are the executable counterpart of the correctness argument of
Section 3.3.3 of the paper.  They enumerate every statement instance, as
batched array passes over the columnar schedule of
:meth:`~repro.tiling.hybrid.HybridTiling.schedule_arrays`, and are therefore
meant for the small problem instances used in tests; the point is that the
*same* schedule construction code is used for the small validated instances
and for the full-size benchmark configurations.  The point-at-a-time oracle
they are tested against lives in ``tests/tiling/oracle.py``.

Three properties are checked:

* **coverage / uniqueness** — every statement instance is claimed by exactly
  one phase, i.e. the blue and green hexagons partition the iteration space;
* **legality** — for every dependence, the source instance is executed before
  the sink instance under the GPU execution model (sequential ``T`` and
  phases, parallel ``S0`` blocks, sequential ``S1..Sn`` and ``t'`` loops with
  a barrier after each ``t'``, parallel threads inside a barrier step);
* **uniformity** — all full (non-boundary) tiles contain exactly the same
  number of statement instances, the property that separates hexagonal from
  diamond tiling (Section 2).
"""

from __future__ import annotations

import numpy as np

from repro._record import dataclass, field
from repro.model.preprocess import statement_boxes
from repro.tiling.hybrid import HybridTiling
from repro.tiling.schedule_arrays import lexicographic_less, run_boundaries


class ScheduleValidationError(AssertionError):
    """A coverage, legality or uniformity violation was detected."""


@dataclass
class ValidationReport:
    """Summary of a full validation run."""

    instances_checked: int = 0
    dependences_checked: int = 0
    full_tiles: int = 0
    partial_tiles: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violations"
        return (
            f"ValidationReport({status}, instances={self.instances_checked}, "
            f"dependences={self.dependences_checked}, "
            f"full_tiles={self.full_tiles}, partial_tiles={self.partial_tiles})"
        )


def check_coverage(tiling: HybridTiling) -> int:
    """Verify that every instance belongs to exactly one phase.

    One batched phase-membership pass over all instances.  Returns the number
    of instances checked; raises :class:`ScheduleValidationError` on a
    violation.
    """
    points = tiling.canonical.instances_array()
    try:
        tiling.hex_schedule.assign_batch(
            points[:, 0], points[:, 1], check_unique=True
        )
    except ValueError as error:
        raise ScheduleValidationError(str(error)) from error
    return len(points)


def check_legality(tiling: HybridTiling) -> int:
    """Verify that every dependence is respected by the hybrid schedule.

    One batched pass per dependence over the memoised schedule.  A
    dependence shifts every sink of its statement by the same offset, so the
    sinks whose source lies in the source statement's box
    (:func:`~repro.model.preprocess.statement_boxes`) form a sub-box of the
    sink's box, and their sources the shifted sub-box of the source's:
    both row sets come from :meth:`~repro.model.preprocess.CanonicalForm.instance_rows`
    and are compared with vectorised lexicographic tests.  Returns the
    number of (dependence, instance) pairs checked.
    """
    canonical = tiling.canonical
    arrays = tiling.schedule_arrays()
    boxes = statement_boxes(canonical.program)
    name_to_index = {
        statement.name: index
        for index, statement in enumerate(canonical.program.statements)
    }
    num_statements = canonical.num_statements
    checked = 0
    for dependence in canonical.dependences:
        sink_index = name_to_index[dependence.sink]
        source_index = name_to_index[dependence.source]
        # The sink at logical time k*t + sink_index reads the source at
        # k*(t + lag // k) + lag % k: one modulo test decides whether that
        # slot belongs to the source statement.
        lag = sink_index - dependence.distance[0]
        if lag % num_statements != source_index:
            continue
        shift = (lag // num_statements, *(-d for d in dependence.distance[1:]))
        sink_lower, sink_upper = boxes[sink_index]
        source_lower, source_upper = boxes[source_index]
        lower = tuple(
            max(lo, source_lo - d)
            for lo, source_lo, d in zip(sink_lower, source_lower, shift)
        )
        upper = tuple(
            min(hi, source_hi - d)
            for hi, source_hi, d in zip(sink_upper, source_upper, shift)
        )
        if any(lo > hi for lo, hi in zip(lower, upper)):
            continue
        sinks = arrays.take(canonical.instance_rows(sink_index, lower, upper))
        sources = arrays.take(
            canonical.instance_rows(
                source_index,
                tuple(lo + d for lo, d in zip(lower, shift)),
                tuple(hi + d for hi, d in zip(upper, shift)),
            )
        )
        _check_ordering(sources, sinks, dependence)
        checked += len(sinks)
    return checked


def _check_ordering(sources, sinks, dependence) -> None:
    """Raise unless every source row executes before its sink row on the GPU.

    The ordering of Section 4.1 over aligned rows: ``(T, p)`` is sequential;
    within one ``(T, p)`` the ``S0`` blocks run in parallel, so a dependence
    must stay inside one block, where ``(S1..Sn, t')`` is sequential with a
    barrier after each ``t'`` step.
    """
    source_outer = (sources.time_tile, sources.phase)
    sink_outer = (sinks.time_tile, sinks.phase)
    outer_before = lexicographic_less(source_outer, sink_outer)
    outer_after = lexicographic_less(sink_outer, source_outer)
    if outer_after.any():
        index = int(np.flatnonzero(outer_after)[0])
        raise ScheduleValidationError(
            f"dependence {dependence} violated: source tile "
            f"{sources.point(index).tile} executes after sink tile "
            f"{sinks.point(index).tile}"
        )
    same_outer = ~outer_before
    # Same time tile and phase: blocks run in parallel, so the two instances
    # must live in the same hexagonal (S0) tile.
    crossing = same_outer & (sources.space_tiles[:, 0] != sinks.space_tiles[:, 0])
    if crossing.any():
        index = int(np.flatnonzero(crossing)[0])
        raise ScheduleValidationError(
            f"dependence {dependence} crosses concurrent blocks: "
            f"{sources.point(index).tile} -> {sinks.point(index).tile}"
        )
    inner_columns = range(1, sources.ndim)
    source_inner = (
        *(sources.space_tiles[:, axis] for axis in inner_columns),
        sources.local_time,
    )
    sink_inner = (
        *(sinks.space_tiles[:, axis] for axis in inner_columns),
        sinks.local_time,
    )
    stalled = same_outer & ~lexicographic_less(source_inner, sink_inner)
    if stalled.any():
        index = int(np.flatnonzero(stalled)[0])
        source_point = sources.point(index)
        sink_point = sinks.point(index)
        source_key = (tuple(source_point.tile.space_tiles[1:]), source_point.local_time)
        sink_key = (tuple(sink_point.tile.space_tiles[1:]), sink_point.local_time)
        raise ScheduleValidationError(
            f"dependence {dependence} violated inside tile {sink_point.tile}: "
            f"source inner coordinates {source_key} do not precede "
            f"{sink_key}"
        )


def check_tile_uniformity(tiling: HybridTiling) -> tuple[int, int]:
    """Check that all full tiles have the same iteration count.

    In the memoised sequential order (:meth:`HybridTiling.sequential_order`),
    whose key starts with the tile key, every tile is one run of equal tile
    keys.  Returns ``(full_tiles, partial_tiles)``.  A tile is *full* when
    its point count equals :meth:`HybridTiling.iterations_per_full_tile`;
    partial tiles (at the domain boundary) may contain fewer points but
    never more.
    """
    expected = tiling.iterations_per_full_tile()
    arrays = tiling.schedule_arrays()
    order = tiling.sequential_order()
    starts = run_boundaries(*(column[order] for column in arrays.tile_key_columns()))
    counts = np.diff(np.append(starts, len(order)))
    oversized = counts > expected
    if oversized.any():
        index = int(np.flatnonzero(oversized)[0])
        tile = arrays.point(int(order[starts[index]])).tile
        raise ScheduleValidationError(
            f"tile {tile} contains {int(counts[index])} points, more than the "
            f"uniform full-tile count {expected}"
        )
    full = int((counts == expected).sum())
    return full, len(counts) - full


def validate_hybrid_tiling(tiling: HybridTiling) -> ValidationReport:
    """Run all validation passes and return a report.

    Raises :class:`ScheduleValidationError` as soon as a violation is found.
    """
    report = ValidationReport()
    report.instances_checked = check_coverage(tiling)
    report.dependences_checked = check_legality(tiling)
    report.full_tiles, report.partial_tiles = check_tile_uniformity(tiling)
    return report

"""The array-native scheduling core agrees with the brute-force oracle.

For every stencil in the library (at test-scale problem sizes), the batched
assignment, sequential order, tile grouping and validation report equal what
``oracle.py`` derives one statement instance at a time, and the enumerated
instances equal, row for row, the exact-LP enumeration of
``polyhedral/lp_oracle.py``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import oracle
import pytest
from polyhedral import lp_oracle

from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil, list_stencils
from repro.tiling.hybrid import HybridTiling, TileSizes
from repro.tiling.schedule_arrays import (
    lexicographic_less,
    run_boundaries,
)
from repro.tiling.validate import validate_hybrid_tiling

# Small instances per dimensionality: enough points to produce full and
# partial tiles, small enough for the point-at-a-time oracle.
_SMALL = {1: ((48,), 8), 2: ((14, 12), 6), 3: ((8, 8, 8), 4)}


def _tiling_for(name: str) -> HybridTiling:
    program_full = get_stencil(name)
    sizes, steps = _SMALL[len(program_full.sizes)]
    program = get_stencil(name, sizes=sizes, steps=steps)
    canonical = canonicalize(program)
    # h + 1 is a multiple of the statement count, as HybridTiling requires.
    height = 1 if canonical.num_statements == 1 else canonical.num_statements - 1
    return HybridTiling(
        canonical, TileSizes.of(height, *[3 + axis for axis in range(len(sizes))])
    )


def _rows(arrays) -> list[tuple[int, ...]]:
    """Schedule rows ``(T, p, S0..Sn, t', s'0..s'n)`` as tuples."""
    columns = np.column_stack(arrays.sequential_key_columns())
    return [tuple(row) for row in columns.tolist()]


def _oracle_order(tiling) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(schedule row, canonical point)`` of every instance, sequentially."""
    points = oracle.instances(tiling.canonical.program)
    return sorted((oracle.assign(tiling, point), point) for point in points)


@pytest.mark.parametrize("name", list_stencils())
def test_assign_batch_matches_scalar_assignment(name):
    tiling = _tiling_for(name)
    arrays = tiling.schedule_arrays()
    points = [tuple(point) for point in arrays.canonical.tolist()]
    assert points == lp_oracle.instances(tiling.canonical.program)
    assert _rows(arrays) == [oracle.assign(tiling, point) for point in points]
    k = tiling.num_statements
    assert arrays.statement_index.tolist() == [point[0] % k for point in points]


@pytest.mark.parametrize("name", list_stencils())
def test_execution_order_matches_reference(name):
    tiling = _tiling_for(name)
    arrays = tiling.schedule_arrays()
    ordered = arrays.take(arrays.sequential_order())
    expected = _oracle_order(tiling)
    assert _rows(ordered) == [row for row, _ in expected]
    assert [tuple(p) for p in ordered.canonical.tolist()] == [p for _, p in expected]


@pytest.mark.parametrize("name", list_stencils())
def test_tile_grouping_matches_reference(name):
    """Runs of equal tile keys in the sorted schedule are the oracle's tiles."""
    tiling = _tiling_for(name)
    arrays = tiling.schedule_arrays()
    ordered = arrays.take(arrays.sequential_order())
    keys = _rows(ordered)
    starts = run_boundaries(*ordered.tile_key_columns()).tolist()
    sizes = np.diff([*starts, len(ordered)]).tolist()
    tile = slice(2 + tiling.ndim)  # (T, p, S0..Sn)
    grouped = [(keys[start][tile], size) for start, size in zip(starts, sizes)]
    expected = Counter(row[tile] for row, _ in _oracle_order(tiling))
    assert grouped == sorted(expected.items())


@pytest.mark.parametrize("name", list_stencils())
def test_validator_verdicts_match_reference(name):
    tiling = _tiling_for(name)
    report = validate_hybrid_tiling(tiling)
    assert report == oracle.validate(tiling)
    assert report.ok and report.dependences_checked > 0


def test_hexagon_row_bounds_match_fraction_reference():
    """The batched integer row bounds equal the exact Fraction evaluation."""
    from fractions import Fraction

    from repro.tiling.cone import DependenceCone
    from repro.tiling.hexagon import HexagonalTileShape, minimal_width

    cones = [
        DependenceCone(Fraction(1), Fraction(1)),
        DependenceCone(Fraction(1, 2), Fraction(2)),
        DependenceCone(Fraction(2, 3), Fraction(1, 3)),
        DependenceCone(Fraction(0), Fraction(1)),
    ]
    for cone in cones:
        for height in range(0, 5):
            width = minimal_width(cone.delta0, cone.delta1, height) + 1
            shape = HexagonalTileShape(cone, height, width)
            for a in range(0, 2 * height + 2):
                assert shape.row_range(a) == oracle.row_range(shape, a)


def test_run_boundaries_and_lexicographic_less():
    keys = (
        np.array([0, 0, 0, 1, 1, 2]),
        np.array([0, 0, 1, 1, 1, 0]),
    )
    assert run_boundaries(*keys).tolist() == [0, 2, 3, 5]
    left = (np.array([0, 1, 1]), np.array([5, 0, 1]))
    right = (np.array([1, 1, 1]), np.array([0, 0, 1]))
    assert lexicographic_less(left, right).tolist() == [True, False, False]

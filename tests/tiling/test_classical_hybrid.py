"""Unit tests for classical tiling, the hybrid combination and its validation."""

from fractions import Fraction

import numpy as np
import oracle
import pytest

from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.classical import ClassicalTiling
from repro.tiling.hex_schedule import Phase
from repro.tiling.hybrid import HybridTiling, TileSizes
from repro.tiling.validate import (
    ScheduleValidationError,
    check_coverage,
    check_legality,
    check_tile_uniformity,
    validate_hybrid_tiling,
)


# -- classical tiling -----------------------------------------------------------------


def test_classical_tile_index_and_local_coordinate():
    tiling = ClassicalTiling("s1", Fraction(1), 4, 6)
    for s in range(-10, 10):
        for u in range(0, 6):
            index = tiling.tile_index(s, u)
            local = tiling.local_coordinate(s, u)
            assert 0 <= local < 4
            assert index * 4 + local == s + u


def test_classical_rational_slope_is_exact():
    tiling = ClassicalTiling("s1", Fraction(1, 2), 4, 6)
    for s in range(-8, 8):
        for u in range(0, 6):
            index = tiling.tile_index(s, u)
            assert index == (2 * s + u) // 8


def test_classical_skew_respects_dependences():
    """sink tile index >= source tile index for every in-cone dependence."""
    tiling = ClassicalTiling("s1", Fraction(1), 5, 8)
    for s in range(-10, 10):
        for u in range(0, 7):
            source = tiling.tile_index(s, u)
            for dl in (1, 2):
                for ds in range(-dl, dl + 1):
                    sink = tiling.tile_index(s + ds, u + dl)
                    assert sink >= source


def test_classical_expressions_match_evaluation():
    tiling = ClassicalTiling("s1", Fraction(1), 4, 6)
    index_expr = tiling.tile_index_expr()
    local_expr = tiling.local_coordinate_expr()
    for s in range(-6, 6):
        for u in range(0, 6):
            env = {"s1": s, "u": u}
            assert index_expr.evaluate(env) == tiling.tile_index(s, u)
            assert local_expr.evaluate(env) == tiling.local_coordinate(s, u)


def test_classical_invalid_parameters():
    with pytest.raises(ValueError):
        ClassicalTiling("s1", Fraction(1), 0, 6)
    with pytest.raises(ValueError):
        ClassicalTiling("s1", Fraction(-1), 4, 6)


# -- hybrid tiling --------------------------------------------------------------------


def test_tile_sizes_validation():
    with pytest.raises(ValueError):
        TileSizes(-1, (3,))
    sizes = TileSizes.of(2, 3, 4)
    assert sizes.w0 == 3 and sizes.widths == (3, 4)


def test_hybrid_requires_matching_width_count(jacobi_canonical):
    with pytest.raises(ValueError):
        HybridTiling(jacobi_canonical, TileSizes.of(2, 3))


def test_hybrid_statement_alignment_enforced():
    program = get_stencil("fdtd_2d", sizes=(12, 12), steps=4)
    canonical = canonicalize(program)
    with pytest.raises(ValueError):
        HybridTiling(canonical, TileSizes.of(3, 2, 4))   # h+1 = 4 not multiple of 3
    HybridTiling(canonical, TileSizes.of(2, 2, 4))        # h+1 = 3 is fine


def test_hybrid_full_validation_jacobi(jacobi_tiling):
    report = validate_hybrid_tiling(jacobi_tiling)
    assert report.ok
    assert report.instances_checked == jacobi_tiling.canonical.program.stencil_updates()
    assert report.dependences_checked > 0


def test_hybrid_full_validation_heat_3d(small_heat_3d):
    canonical = canonicalize(small_heat_3d)
    tiling = HybridTiling(canonical, TileSizes.of(1, 2, 4, 5))
    report = validate_hybrid_tiling(tiling)
    assert report.ok


def test_hybrid_full_validation_multi_statement(small_fdtd_2d):
    canonical = canonicalize(small_fdtd_2d)
    tiling = HybridTiling(canonical, TileSizes.of(2, 2, 5))
    assert validate_hybrid_tiling(tiling).ok


def test_hybrid_schedule_point_round_trip(jacobi_tiling):
    canonical_point = jacobi_tiling.canonical.to_canonical(0, 3, (5, 7))
    point = jacobi_tiling.assign_batch(np.array([canonical_point])).point(0)
    assert point.canonical_point == (3, 5, 7)
    assert point.statement_index == 0
    assert len(point.tile.space_tiles) == 2
    assert len(point.local_space) == 2


def test_iterations_per_full_tile_closed_form():
    """§3.7: 2(1 + 2h + h² + w0(h+1)) · w1 · w2 for 3D unit-slope stencils."""
    program = get_stencil("heat_3d", sizes=(32, 32, 32), steps=8)
    canonical = canonicalize(program)
    for h, w0, w1, w2 in [(2, 7, 10, 32), (1, 3, 8, 16), (3, 2, 4, 8)]:
        tiling = HybridTiling(canonical, TileSizes.of(h, w0, w1, w2))
        expected = 2 * (1 + 2 * h + h * h + w0 * (h + 1)) * w1 * w2
        assert tiling.iterations_per_full_tile() == expected


def test_time_steps_per_tile(jacobi_tiling):
    assert jacobi_tiling.time_steps_per_tile() == 6


def test_schedule_expressions_evaluate_consistently(jacobi_tiling):
    """The Figure 6 style closed forms agree with the point-wise assignment."""
    for phase in (Phase.BLUE, Phase.GREEN):
        exprs = jacobi_tiling.schedule_expressions(phase)
        for l in range(0, 12):
            for i in range(1, 15):
                for j in range(1, 13):
                    T, p, S0, S1, t_local, s0_local, _ = oracle.assign(
                        jacobi_tiling, (l, i, j)
                    )
                    if p != phase:
                        continue
                    env = {"l": l, "i": i, "j": j}
                    assert exprs["T"].evaluate(env) == T
                    assert exprs["S0"].evaluate(env) == S0
                    assert exprs["S1"].evaluate(env) == S1
                    assert exprs["t_local"].evaluate(env) == t_local
                    assert exprs["s0_local"].evaluate(env) == s0_local


def test_validation_detects_broken_schedule(jacobi_canonical, monkeypatch):
    """Sabotaged tile coordinates must be caught by the test oracle."""
    tiling = HybridTiling(jacobi_canonical, TileSizes.of(2, 3, 6))
    original = oracle.assign

    def sabotaged(tiling, point):
        row = original(tiling, point)
        return (row[0] - 1, *row[1:]) if row[1] == Phase.GREEN else row

    monkeypatch.setattr(oracle, "assign", sabotaged)
    with pytest.raises(ScheduleValidationError):
        oracle.validate(tiling)


def test_batched_validation_detects_broken_schedule(jacobi_canonical):
    """Sabotaged batch assignment must be caught by the array-native checker."""
    import numpy as np

    tiling = HybridTiling(jacobi_canonical, TileSizes.of(2, 3, 6))
    original = tiling.assign_batch

    def sabotaged(points, check_unique=False):
        arrays = original(points, check_unique)
        green = arrays.phase == int(Phase.GREEN)
        return type(arrays)(
            canonical=arrays.canonical,
            statement_index=arrays.statement_index,
            time_tile=np.where(green, arrays.time_tile - 1, arrays.time_tile),
            phase=arrays.phase,
            space_tiles=arrays.space_tiles,
            local_time=arrays.local_time,
            local_space=arrays.local_space,
        )

    tiling.assign_batch = sabotaged  # type: ignore[method-assign]
    tiling._schedule_arrays_cache = None
    with pytest.raises(ScheduleValidationError):
        check_legality(tiling)


def test_uniformity_reports_full_and_partial_tiles(jacobi_tiling):
    full, partial = check_tile_uniformity(jacobi_tiling)
    points = oracle.instances(jacobi_tiling.canonical.program)
    assert full + partial == len({oracle.assign(jacobi_tiling, p)[:4] for p in points})
    assert partial > 0
    assert check_coverage(jacobi_tiling) == jacobi_tiling.canonical.program.stencil_updates()

"""Property-based tests (hypothesis) for the core tiling invariants.

These are the paper's correctness claims, checked over randomly drawn
dependence cones, tile sizes and windows of the iteration space:

* the two phases partition the plane (every point in exactly one hexagon);
* the schedule is legal for every dependence inside the cone;
* all full tiles contain the same number of integer points;
* the tile shape point count matches the closed form of Section 3.7;
* the integer row bounds, and the hexagon figures the §3.7 table takes as
  linear in ``w0``, match the exact-rational oracle for rational slopes;
* the classical tiling's skew keeps dependences within non-decreasing tiles.
"""

from __future__ import annotations

from fractions import Fraction

import oracle
from hypothesis import given, settings, strategies as st

from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.classical import ClassicalTiling
from repro.tiling.cone import DependenceCone
from repro.tiling.hex_schedule import HexagonalSchedule
from repro.tiling.hexagon import HexagonalTileShape, minimal_width, row_bounds
from repro.tiling.tile_size import TileSizeModel


# Strategy: dependence cones from small distance-vector sets.
@st.composite
def cones_and_distances(draw):
    n_vectors = draw(st.integers(min_value=1, max_value=4))
    distances = []
    for _ in range(n_vectors):
        dt = draw(st.integers(min_value=1, max_value=3))
        ds = draw(st.integers(min_value=-3, max_value=3))
        distances.append((dt, ds))
    cone = DependenceCone.from_distance_vectors(distances)
    return cone, distances


@st.composite
def shapes(draw):
    cone, distances = draw(cones_and_distances())
    height = draw(st.integers(min_value=0, max_value=4))
    extra = draw(st.integers(min_value=0, max_value=4))
    width = minimal_width(cone.delta0, cone.delta1, height) + extra
    return HexagonalTileShape(cone, height, width), distances


@settings(max_examples=30, deadline=None)
@given(shapes())
def test_phases_partition_the_plane(shape_and_distances):
    shape, _ = shape_and_distances
    schedule = HexagonalSchedule(shape)
    for l in range(0, 3 * shape.time_period):
        for s0 in range(-2 * shape.space_period, 2 * shape.space_period):
            schedule.assign(l, s0, check_unique=True)


@settings(max_examples=30, deadline=None)
@given(shapes())
def test_schedule_is_legal_for_all_cone_dependences(shape_and_distances):
    shape, distances = shape_and_distances
    schedule = HexagonalSchedule(shape)
    start = max(dt for dt, _ in distances)
    for l in range(start, start + 2 * shape.time_period):
        for s0 in range(-shape.space_period, shape.space_period):
            sink = schedule.assign(l, s0)
            for dt, ds in distances:
                source = schedule.assign(l - dt, s0 - ds)
                source_key = (source.time_tile, int(source.phase))
                sink_key = (sink.time_tile, int(sink.phase))
                assert source_key <= sink_key
                if source_key == sink_key:
                    assert source.space_tile == sink.space_tile
                    assert source.local_time < sink.local_time


@settings(max_examples=30, deadline=None)
@given(shapes())
def test_all_interior_tiles_have_identical_counts(shape_and_distances):
    shape, _ = shape_and_distances
    schedule = HexagonalSchedule(shape)
    counts: dict[tuple, int] = {}
    l_extent = 4 * shape.time_period
    s_extent = 4 * shape.space_period
    for l in range(l_extent):
        for s0 in range(s_extent):
            a = schedule.assign(l, s0)
            counts[(a.phase, a.time_tile, a.space_tile)] = (
                counts.get((a.phase, a.time_tile, a.space_tile), 0) + 1
            )
    # A tile is interior when every one of its points lies inside the window
    # we enumerated (tiles "lean" with the drift term, so this is checked
    # against the actual tile extent rather than the tile indices).
    interior = []
    for (phase, t, s), count in counts.items():
        points = list(schedule.tile_points(phase, t, s))
        if all(0 <= l < l_extent and 0 <= s0 < s_extent for l, s0 in points):
            interior.append(count)
    if interior:
        assert set(interior) == {shape.count()}


@settings(max_examples=50, deadline=None)
@given(
    height=st.integers(min_value=0, max_value=6),
    w0=st.integers(min_value=0, max_value=8),
)
def test_unit_slope_point_count_closed_form(height, w0):
    """For δ0 = δ1 = 1 the hexagon holds 2(1 + 2h + h² + w0(h+1)) points (§3.7)."""
    shape = HexagonalTileShape(DependenceCone(Fraction(1), Fraction(1)), height, w0)
    assert shape.count() == 2 * (1 + 2 * height + height * height + w0 * (height + 1))


@settings(max_examples=50, deadline=None)
@given(
    cone_and_distances=cones_and_distances(),
    height=st.integers(min_value=0, max_value=16),
    extra=st.integers(min_value=0, max_value=12),
)
def test_row_bounds_and_table_hexagons_match_the_oracle_for_rational_cones(
    cone_and_distances, height, extra
):
    """No library stencil has a rational δ0 and only fdtd_2d a rational δ1.

    The table counts a hexagon's points and ``b`` extent at ``w0 = 0`` and
    adds ``w0`` per row and to the extent; both must equal the shape's own.
    """
    cone, _ = cone_and_distances
    w0 = minimal_width(cone.delta0, cone.delta1, height) + extra
    shape = HexagonalTileShape(cone, height, w0)
    lower, upper = row_bounds(cone.delta0, cone.delta1, height, w0)
    assert len(lower) == len(upper) == 2 * height + 2
    for a, bounds in enumerate(zip(lower, upper)):
        expected = oracle.row_range(shape, a)
        assert bounds == (expected.start, expected.stop - 1)
    model = TileSizeModel(canonicalize(get_stencil("jacobi_1d")))
    model.cone = cone  # the hexagon figures read nothing else of the program
    count, (extent,) = model.footprint(height, [w0])
    (_, _), (b_min, b_max) = shape.bounding_box()
    assert count == shape.count()
    assert extent == b_max - b_min + 1


@settings(max_examples=50, deadline=None)
@given(
    numerator=st.integers(min_value=0, max_value=3),
    denominator=st.integers(min_value=1, max_value=3),
    width=st.integers(min_value=1, max_value=8),
    period=st.sampled_from([2, 4, 6, 8]),
    s=st.integers(min_value=-30, max_value=30),
    u=st.integers(min_value=0, max_value=7),
    dl=st.integers(min_value=1, max_value=3),
)
def test_classical_tiling_never_moves_dependences_backwards(
    numerator, denominator, width, period, s, u, dl
):
    delta1 = Fraction(numerator, denominator)
    tiling = ClassicalTiling("s1", delta1, width, period)
    source = tiling.tile_index(s, u)
    # Any dependence within the cone: ds >= -delta1 * dl.
    ds_min = -int(delta1 * dl)
    for ds in range(ds_min, 3):
        sink = tiling.tile_index(s + ds, u + dl)
        assert sink >= source


@settings(max_examples=50, deadline=None)
@given(
    s=st.integers(min_value=-50, max_value=50),
    u=st.integers(min_value=0, max_value=7),
    width=st.integers(min_value=1, max_value=9),
)
def test_classical_local_coordinate_is_consistent(s, u, width):
    tiling = ClassicalTiling("s1", Fraction(1), width, 8)
    index = tiling.tile_index(s, u)
    local = tiling.local_coordinate(s, u)
    assert 0 <= local < width
    assert index * width + local == s + u

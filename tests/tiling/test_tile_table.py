"""The §3.7 tile-size table against the scalar oracle, point by point."""

from __future__ import annotations

import oracle
import pytest

from repro._record import replace
from repro.api import TilingPlan
from repro.frontend import parse_stencil
from repro.gpu.device import GTX470, NVS5200M
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil, list_stencils
from repro.tiling.hybrid import TileSizes
from repro.tiling.tile_size import TileSizeModel, select_tile_sizes

#: A user stencil of radius 10 along ``i``: the convexity minimum of ``w0``
#: is 9 for every height, which is not on the width grid.
RADIUS_10 = """
/* radius_10_2d */
#define T 16
#define N 256
float A[2][N][N];
for (t = 0; t < T; t++)
  for (i = 10; i < N - 10; i++)
    for (j = 1; j < N - 1; j++)
      A[t][i][j] = 0.2f * (A[t-1][i-10][j] + A[t-1][i+10][j]
                           + A[t-1][i][j-1] + A[t-1][i][j+1] + A[t-1][i][j]);
"""

DEVICES = (GTX470, NVS5200M)


def _canonical(name):
    if name == "radius_10_2d":
        return canonicalize(parse_stencil(RADIUS_10))
    return canonicalize(get_stencil(name))


def _check_search(canonical, device, reuse):
    """The table's legal rows, their figures and the pick against the oracle."""
    model, scalar = TileSizeModel(canonical), oracle.TileModel(canonical)
    table = model.table(device, reuse)
    expected = scalar.search(device, reuse)
    assert table.sizes(range(len(expected.grid))) == expected.grid
    assert table.sizes(table.rows) == expected.legal
    figures = list(zip(table.iterations, table.loads, table.shared_memory_bytes))
    assert figures == [expected.figures[sizes] for sizes in expected.legal]
    assert table.rejections == expected.rejections
    assert sum(table.rejections.values()) == len(expected.grid)
    # Every formula keeps its coverage: the one-point estimate matches the
    # oracle at every grid point that passes rule 1, pruned or not.
    for sizes, (iterations, loads, shared) in expected.figures.items():
        estimate = model.estimate(sizes, inter_tile_reuse=reuse)
        assert (estimate.iterations, estimate.loads, estimate.shared_memory_bytes) == (
            iterations, loads, shared
        ), sizes
    if expected.best is None:
        return table
    pick = select_tile_sizes(canonical, device, inter_tile_reuse=reuse)
    assert pick.sizes == expected.best
    figures = (pick.iterations, pick.loads, pick.shared_memory_bytes)
    assert figures == expected.figures[expected.best]
    assert pick.rejections == expected.rejections
    second = pick.runner_up
    if expected.runner_up is None:
        assert second is None
    else:
        assert second is not None and second.sizes == expected.runner_up
        figures = (second.iterations, second.loads, second.shared_memory_bytes)
        assert figures == expected.figures[expected.runner_up]
    return table


@pytest.mark.parametrize("name", [*list_stencils(), "radius_10_2d"])
def test_table_matches_the_scalar_oracle(name):
    canonical = _canonical(name)
    for device in DEVICES:
        for reuse in (True, False):
            _check_search(canonical, device, reuse)


@pytest.mark.parametrize("name", ["jacobi_1d", "heat_2d", "fdtd_2d", "heat_3d"])
def test_a_device_that_fits_every_point_keeps_the_whole_legal_grid(name):
    """No point overflows, so the table holds every point that passes rule 1."""
    roomy = replace(GTX470, name="roomy", shared_memory_per_sm=10**9)
    table = _check_search(_canonical(name), roomy, True)
    assert table.rejections["shared_memory_overflow"] == 0
    assert len(table.rows) == table.rejections["evaluated"] > 0


def test_a_device_that_fits_no_point_names_the_prune_counts():
    canonical = _canonical("fdtd_2d")
    cramped = replace(GTX470, name="cramped", shared_memory_per_sm=64)
    table = _check_search(canonical, cramped, True)
    assert table.rows == [] and table.rejections["evaluated"] == 0
    message = (
        "no legal tile size of the search grid fits the 64-byte shared memory "
        "of the cramped (pruned: shared_memory_overflow=210, legality=504)"
    )
    with pytest.raises(ValueError) as error:
        select_tile_sizes(canonical, cramped)
    assert str(error.value) == message


def test_estimate_matches_the_oracle_off_the_grid():
    canonical = _canonical("radius_10_2d")
    model, scalar = TileSizeModel(canonical), oracle.TileModel(canonical)
    for height in (0, 5, 9, 16):
        sizes = TileSizes.of(height, 9, 32)
        for reuse in (True, False):
            estimate = model.estimate(sizes, inter_tile_reuse=reuse)
            figures = estimate.iterations, estimate.loads, estimate.shared_memory_bytes
            assert figures == scalar.estimate(sizes, reuse)
    with pytest.raises(ValueError, match="convexity condition"):
        model.estimate(TileSizes.of(3, 8, 32))


def test_a_lone_legal_point_has_no_runner_up():
    """A device that fits only the smallest footprint leaves one legal point."""
    canonical = _canonical("heat_2d")
    table = TileSizeModel(canonical).table(GTX470)
    smallest = min(table.shared_memory_bytes)
    pick = select_tile_sizes(canonical, replace(GTX470, shared_memory_per_sm=smallest))
    assert pick.rejections["evaluated"] == 1 and pick.runner_up is None
    summary = TilingPlan("hybrid", pick.sizes, tiling=None, tile_cost=pick).summary()
    assert "model_pruned" in summary and "model_runner_up" not in summary


#: The model's picks, recorded before the table replaced the scalar search.
PINNED_PICKS = [
    (name, reuse, sizes)
    for names, with_reuse, without_reuse in [
        (("heat_3d", "laplacian_3d", "gradient_3d"), (3, 5, 12, 32), (2, 6, 16, 32)),
        (("fdtd_2d",), (14, 32, 32), (14, 20, 64)),
        (
            ("heat_2d", "jacobi_2d", "laplacian_2d", "gradient_2d"),
            (16, 32, 128),
            (16, 32, 128),
        ),
        (("jacobi_1d", "wide_1d", "higher_order_time"), (16, 32), (16, 32)),
        (("radius_10_2d",), (9, 24, 32), (9, 24, 32)),
    ]
    for name in names
    for reuse, sizes in ((True, with_reuse), (False, without_reuse))
]


@pytest.mark.parametrize("name,reuse,sizes", PINNED_PICKS)
def test_model_picks_are_pinned(name, reuse, sizes):
    canonical = _canonical(name)
    for device in DEVICES:
        pick = select_tile_sizes(canonical, device, inter_tile_reuse=reuse)
        assert pick.sizes == TileSizes.of(*sizes)

"""The candidate space: legality by construction, prune accounting."""

from __future__ import annotations

import pytest

from repro.gpu.device import GTX470, NVS5200M
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil, list_stencils
from repro.tiling.hexagon import minimal_width
from repro.tiling.tile_size import (
    PRUNE_LEGALITY,
    PRUNE_SHARED_MEMORY,
    TileSizeModel,
    select_tile_sizes,
)
from repro.tuning import CandidateSpace


@pytest.fixture(scope="module")
def heat3d_canonical():
    return canonicalize(get_stencil("heat_3d"))


@pytest.fixture(scope="module")
def fdtd_canonical():
    return canonicalize(get_stencil("fdtd_2d"))


def test_every_candidate_fits_shared_memory(heat3d_canonical):
    space = CandidateSpace(heat3d_canonical, GTX470)
    model = TileSizeModel(heat3d_canonical)
    assert len(space) > 0
    for candidate in space:
        estimate = model.estimate(candidate, inter_tile_reuse=True)
        assert estimate.shared_memory_bytes <= GTX470.shared_memory_per_sm


def test_every_candidate_satisfies_convexity(heat3d_canonical):
    space = CandidateSpace(heat3d_canonical, GTX470)
    model = TileSizeModel(heat3d_canonical)
    for candidate in space:
        floor = minimal_width(
            model.cone.delta0, model.cone.delta1, candidate.height
        )
        assert candidate.w0 >= floor


def test_multi_statement_heights_are_statement_multiples(fdtd_canonical):
    space = CandidateSpace(fdtd_canonical, GTX470)
    k = fdtd_canonical.num_statements
    assert k == 3
    for candidate in space:
        assert (candidate.height + 1) % k == 0
    assert space.rejections[PRUNE_LEGALITY] > 0


def test_inner_width_is_full_warps(heat3d_canonical):
    space = CandidateSpace(heat3d_canonical, GTX470)
    for candidate in space:
        assert candidate.widths[-1] % GTX470.warp_size == 0


def test_shared_memory_prunes_are_counted(heat3d_canonical):
    space = CandidateSpace(heat3d_canonical, GTX470)
    rejections = space.rejections
    assert rejections[PRUNE_SHARED_MEMORY] > 0
    assert rejections["evaluated"] == len(space)


def test_smaller_shared_memory_shrinks_the_space(heat3d_canonical):
    from repro._record import replace

    big = CandidateSpace(heat3d_canonical, GTX470)
    tiny_device = replace(NVS5200M, shared_memory_per_sm=16 * 1024)
    small = CandidateSpace(heat3d_canonical, tiny_device)
    assert len(small) < len(big)
    assert small.rejections[PRUNE_SHARED_MEMORY] > big.rejections[PRUNE_SHARED_MEMORY]


def test_enumeration_is_deterministic(heat3d_canonical):
    first = CandidateSpace(heat3d_canonical, GTX470).enumerate()
    second = CandidateSpace(heat3d_canonical, GTX470).enumerate()
    assert first == second


def test_neighbours_are_axis_aligned_members(heat3d_canonical):
    space = CandidateSpace(heat3d_canonical, GTX470)
    members = set(space.enumerate())
    candidate = space.enumerate()[len(space) // 2]
    neighbours = space.neighbours(candidate)
    assert neighbours
    for neighbour in neighbours:
        assert neighbour in members
        assert neighbour != candidate
        differing = sum(
            a != b
            for a, b in zip(
                (neighbour.height, *neighbour.widths),
                (candidate.height, *candidate.widths),
            )
        )
        assert differing == 1


@pytest.mark.parametrize("name", list_stencils())
def test_model_pick_is_a_member_of_the_space(name):
    canonical = canonicalize(get_stencil(name))
    for device in (GTX470, NVS5200M):
        for reuse in (True, False):
            pick = select_tile_sizes(canonical, device, inter_tile_reuse=reuse)
            space = CandidateSpace(canonical, device, inter_tile_reuse=reuse)
            assert pick.sizes in space.enumerate()
            assert space.rejections == pick.rejections


def test_select_tile_sizes_reports_rejections(heat3d_canonical):
    estimate = select_tile_sizes(heat3d_canonical, GTX470)
    assert estimate.rejections is not None
    assert estimate.rejections[PRUNE_SHARED_MEMORY] > 0
    assert estimate.rejections["evaluated"] > 0


def test_rejections_do_not_affect_estimate_equality(heat3d_canonical):
    model = TileSizeModel(heat3d_canonical)
    chosen = select_tile_sizes(heat3d_canonical, GTX470)
    recomputed = model.estimate(chosen.sizes, inter_tile_reuse=True)
    # Same cost figures, different (None) rejection payload: still equal.
    assert recomputed == chosen


def test_1d_space_has_no_warp_constraint():
    canonical = canonicalize(get_stencil("jacobi_1d"))
    space = CandidateSpace(canonical, GTX470)
    assert any(c.widths[-1] % GTX470.warp_size != 0 for c in space)


def test_3d_sweep_explores_all_w0_values(heat3d_canonical):
    """Regression: the §3.7 sweep used to exhaust an itertools.product
    generator after the first w0, so 3-D stencils never explored middle
    widths beyond w0=1.  The fixed sweep must find a strictly better
    load-to-compute ratio than the best w0=1 candidate."""
    from repro.tiling.hybrid import TileSizes

    model = TileSizeModel(heat3d_canonical)
    best = select_tile_sizes(heat3d_canonical, GTX470)
    old_buggy_winner = model.estimate(TileSizes.of(3, 1, 20, 32))
    assert best.load_to_compute < old_buggy_winner.load_to_compute
    assert best.sizes.w0 > 1

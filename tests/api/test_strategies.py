"""The three tiling strategies, selected by name."""

from __future__ import annotations

import pytest

from repro.api import PipelineError, Session, TileSizes, list_strategies
from repro.stencils import get_stencil
from repro.tiling.classical import ClassicalTiling
from repro.tiling.diamond import DiamondTiling
from repro.tiling.hybrid import HybridTiling


@pytest.fixture
def program():
    return get_stencil("jacobi_2d", sizes=(20, 18), steps=10)


SIZES = TileSizes.of(2, 3, 6)


def test_hybrid_strategy_builds_a_codegen_capable_plan(program):
    run = Session(strategy="hybrid").run(program, tile_sizes=SIZES, stop_after="tiling")
    plan = run.artifact("tiling")
    assert plan.strategy == "hybrid"
    assert plan.supports_codegen
    assert isinstance(plan.tiling, HybridTiling)
    assert plan.details["concurrent_start"] is True


def test_classical_strategy_builds_skewed_parallelogram_tilings(program):
    run = Session(strategy="classical").run(
        program, tile_sizes=SIZES, stop_after="tiling"
    )
    plan = run.artifact("tiling")
    assert plan.strategy == "classical"
    assert not plan.supports_codegen
    assert all(isinstance(t, ClassicalTiling) for t in plan.tiling)
    assert len(plan.tiling) == 2  # one per space dimension
    assert plan.details["concurrent_start"] is False


def test_diamond_strategy_wraps_diamond_tiling(program):
    run = Session(strategy="diamond").run(program, tile_sizes=SIZES, stop_after="tiling")
    plan = run.artifact("tiling")
    assert plan.strategy == "diamond"
    assert isinstance(plan.tiling, DiamondTiling)
    # The paper's Section 2 observation: the diamond peak is fixed (<= 2)
    # while the hexagonal peak is adjustable.
    assert plan.details["peak_width"] <= 2


def test_analysis_only_strategies_cannot_reach_codegen(program):
    for name in ("classical", "diamond"):
        with pytest.raises(PipelineError, match="analysis-only"):
            Session(strategy=name).run(program, tile_sizes=SIZES)


def test_model_selected_sizes_without_explicit_tile_sizes(program):
    run = Session().run(program, stop_after="tiling")
    plan = run.artifact("tiling")
    assert plan.tile_cost is not None
    assert plan.sizes == plan.tile_cost.sizes


def test_each_session_runs_its_own_strategy(program, tmp_path):
    """Sessions sharing a disk cache never serve one strategy's plan to another."""
    from repro.cache import DiskCache

    cache = DiskCache(tmp_path / "hexcc")
    for name in list_strategies():
        run = Session(strategy=name, disk_cache=cache).run(
            program, tile_sizes=SIZES, stop_after="tiling"
        )
        assert run.request.strategy == name
        assert run.artifact("tiling").strategy == name
        assert {e.name: e.source for e in run.events}["tiling"] == "computed"

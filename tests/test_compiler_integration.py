"""End-to-end integration tests of the hybrid compiler pipeline."""

import pytest

from repro.api import OptimizationConfig, Session, table4_configurations
from repro.codegen.analysis import AnalyticProfiler
from repro.gpu.device import GTX470, NVS5200M
from repro.gpu.simulator import FunctionalSimulator
from repro.stencils import get_stencil, paper_benchmarks
from repro.tiling.hybrid import TileSizes
from repro.tiling.validate import validate_hybrid_tiling


def _estimate(run, device):
    """The analytic estimate of one run's tiling, profiled for ``device``."""
    return AnalyticProfiler(
        run.artifact("tiling").tiling,
        run.artifact("memory").plan,
        run.request.config,
        device,
    ).estimate(run.artifact("codegen").core_profiles)


def test_compile_validate_simulate_jacobi():
    program = get_stencil("jacobi_2d", sizes=(20, 18), steps=10)
    run = Session().run(program, tile_sizes=TileSizes.of(2, 3, 6))
    assert validate_hybrid_tiling(run.artifact("tiling").tiling).ok
    result = run.simulate_and_check()
    assert result.tiles_executed > 0
    assert "hybrid tiling" in run.artifact("tiling").tiling.describe()
    assert "__global__" in run.artifact("codegen").cuda_source


def test_compile_with_automatic_tile_size_selection():
    program = get_stencil("heat_2d", sizes=(256, 256), steps=16)
    plan = Session().run(program, stop_after="tiling").artifact("tiling")
    assert plan.tile_cost is not None
    assert plan.tiling.sizes == plan.tile_cost.sizes
    assert plan.tile_cost.shared_memory_bytes <= GTX470.shared_memory_per_sm


@pytest.mark.parametrize("name", paper_benchmarks())
def test_all_paper_benchmarks_compile_at_small_scale(name):
    """Every benchmark compiles, validates and simulates at a reduced size."""
    if name.endswith("3d"):
        program = get_stencil(name, sizes=(10, 9, 8), steps=4)
        sizes = TileSizes.of(1, 2, 3, 4)
    elif name == "fdtd_2d":
        program = get_stencil(name, sizes=(14, 12), steps=6)
        sizes = TileSizes.of(2, 2, 5)
    else:
        program = get_stencil(name, sizes=(16, 14), steps=6)
        sizes = TileSizes.of(2, 2, 5)
    run = Session().run(program, tile_sizes=sizes)
    assert validate_hybrid_tiling(run.artifact("tiling").tiling).ok
    run.simulate_and_check()


def test_performance_estimation_runs_for_all_configurations():
    session = Session()
    program = get_stencil("heat_3d")
    for label, config in table4_configurations().items():
        run = session.run(
            program,
            tile_sizes=TileSizes.of(2, 7, 10, 32),
            config=config,
            stop_after="analysis",
        )
        report = run.artifact("analysis").report
        assert report.gflops > 0, label
        assert report.total_time_s > 0


def test_best_configuration_beats_worst_on_bandwidth_starved_device():
    """Configuration (f) must beat (b) on the NVS 5200M, as in Table 4."""
    session = Session(NVS5200M)
    program = get_stencil("heat_3d")
    sizes = TileSizes.of(2, 7, 10, 32)

    def gflops(config):
        run = session.run(
            program, tile_sizes=sizes, config=config, stop_after="analysis"
        )
        return run.artifact("analysis").report.gflops

    assert gflops(OptimizationConfig.config_f()) > gflops(OptimizationConfig.config_b())


def test_gtx470_faster_than_nvs5200():
    program = get_stencil("heat_2d")
    run = Session().run(program, tile_sizes=TileSizes.of(3, 4, 64))
    # One tiling, estimated on both devices.
    fast = _estimate(run, GTX470).performance(GTX470)
    slow = _estimate(run, NVS5200M).performance(NVS5200M)
    assert fast.gstencils_per_second > 2 * slow.gstencils_per_second


def test_execution_estimate_counters_are_consistent():
    program = get_stencil("heat_3d")
    run = Session().run(
        program, tile_sizes=TileSizes.of(2, 7, 10, 32), stop_after="analysis"
    )
    estimate = run.artifact("analysis").estimate
    counters = estimate.counters
    assert counters.stencil_updates == program.stencil_updates()
    assert counters.flops == program.flops_total()
    assert counters.gld_efficiency <= 1.0
    assert counters.kernel_launches == 2 * estimate.tile_counts.time_tiles
    assert estimate.tile_counts.total_tiles > 0


def test_analytic_and_simulated_counters_agree_on_small_problem():
    """Cross-check the analytic profiler against the exact simulator counts."""
    program = get_stencil("jacobi_2d", sizes=(40, 38), steps=24)
    run = Session().run(program, tile_sizes=TileSizes.of(3, 3, 8), stop_after="analysis")
    analytic = run.artifact("analysis").estimate.counters
    simulated = FunctionalSimulator(
        run.artifact("tiling").tiling, run.artifact("memory").plan, run.request.config
    ).run().counters
    assert analytic.stencil_updates == simulated.stencil_updates
    assert analytic.flops == simulated.flops
    # The analytic global-load count over-approximates boundary tiles but must
    # stay within a factor of two of the exact count.
    ratio = analytic.gld_instructions / simulated.gld_instructions
    assert 0.5 < ratio < 3.0

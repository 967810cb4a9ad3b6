"""Functional simulator tests: tiled execution must match the reference."""

import numpy as np
import pytest

from repro.api import OptimizationConfig, Session
from repro.gpu.counters import PerformanceCounters
from repro.gpu.simulator import FunctionalSimulator
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.hybrid import HybridTiling, TileSizes


def _check(name, sizes, steps, tile_sizes, config=None):
    program = get_stencil(name, sizes=sizes, steps=steps)
    run = Session().run(program, tile_sizes=tile_sizes, config=config)
    result = run.simulate_and_check()
    return run, result


def test_jacobi_2d_simulation_matches_reference():
    run, result = _check("jacobi_2d", (20, 18), 10, TileSizes.of(2, 3, 6))
    assert result.tiles_executed == result.full_tiles + result.partial_tiles
    program = run.artifact("parse").program
    assert result.counters.stencil_updates == program.stencil_updates()


def test_laplacian_2d_simulation_matches_reference():
    _check("laplacian_2d", (16, 16), 8, TileSizes.of(3, 2, 5))


def test_gradient_2d_simulation_matches_reference():
    _check("gradient_2d", (14, 14), 6, TileSizes.of(1, 2, 4))


def test_heat_3d_simulation_matches_reference():
    _check("heat_3d", (10, 9, 8), 5, TileSizes.of(1, 2, 3, 4))


def test_fdtd_multi_statement_simulation_matches_reference():
    _check("fdtd_2d", (14, 12), 6, TileSizes.of(2, 2, 5))


def test_simulation_without_shared_memory_config():
    _check("jacobi_2d", (16, 14), 6, TileSizes.of(2, 3, 5), OptimizationConfig.config_a())


def test_simulation_counters_reasonable():
    run, result = _check("heat_2d", (18, 16), 8, TileSizes.of(3, 3, 6))
    counters = result.counters
    updates = run.artifact("parse").program.stencil_updates()
    assert counters.flops == updates * 9
    assert counters.gst_instructions == updates
    # With shared staging, distinct loads per tile are below 9 per update.
    assert counters.gld_instructions < updates * 9
    assert counters.gld_instructions > 0


def test_simulation_footprint_fits_plan():
    run, result = _check("heat_3d", (10, 9, 8), 5, TileSizes.of(1, 2, 3, 4))
    planned = sum(f.elements * f.versions for f in run.artifact("memory").plan.footprints)
    assert result.max_footprint_elements <= planned


def test_simulator_with_custom_initial_state():
    program = get_stencil("jacobi_2d", sizes=(12, 12), steps=4)
    tiling = HybridTiling(canonicalize(program), TileSizes.of(1, 2, 4))
    simulator = FunctionalSimulator(tiling)
    initial = {"A": np.fromfunction(lambda i, j: i + j, (12, 12), dtype=np.float32)}
    result = simulator.run(initial={"A": initial["A"].copy()})
    reference = program.run_reference({"A": initial["A"].copy()})
    assert result.matches_reference(reference)


def test_simulator_detects_mismatch_against_wrong_reference():
    program = get_stencil("jacobi_2d", sizes=(12, 12), steps=4)
    tiling = HybridTiling(canonicalize(program), TileSizes.of(1, 2, 4))
    result = FunctionalSimulator(tiling).run(seed=0)
    wrong = {"A": np.zeros((12, 12), dtype=np.float32)}
    assert not result.matches_reference(wrong)


# (sizes, steps, tile sizes) -> (tiles, full, partial) and every non-zero
# counter.  The values agree with a point-at-a-time execution of the same
# tiles, so any change to them is a change of simulated behaviour.
_PINNED = {
    "jacobi_1d": (
        ((48,), 8, (1, 3)),
        (25, 12, 13),
        dict(
            gld_instructions=528, gst_instructions=368, dram_read_transactions=66,
            dram_write_transactions=46, shared_load_requests=34.5,
            shared_load_transactions=34.5, shared_store_requests=11.5, flops=1104,
            stencil_updates=368, kernel_launches=6, barriers=100,
            requested_global_bytes=2112, transferred_global_bytes=2112,
            host_device_bytes=384,
        ),
    ),
    "fdtd_2d": (
        ((24, 20), 9, (2, 2, 5)),
        (150, 15, 135),
        dict(
            gld_instructions=20439, gst_instructions=10692,
            dram_read_transactions=2554.875, dram_write_transactions=1336.5,
            shared_load_requests=1225.125, shared_load_transactions=1225.125,
            shared_store_requests=334.125, flops=39204, stencil_updates=10692,
            kernel_launches=10, barriers=900, requested_global_bytes=81756,
            transferred_global_bytes=81756, host_device_bytes=11520,
        ),
    ),
    "heat_3d": (
        ((14, 12, 12), 6, (1, 1, 2, 3)),
        (277, 9, 268),
        dict(
            gld_instructions=47592, gst_instructions=7200,
            dram_read_transactions=5949, dram_write_transactions=900,
            shared_load_requests=6075, shared_load_transactions=6075,
            shared_store_requests=225, flops=194400, stencil_updates=7200,
            kernel_launches=4, barriers=1108, requested_global_bytes=190368,
            transferred_global_bytes=190368, host_device_bytes=16128,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_simulation_counters_are_pinned(name):
    (sizes, steps, tile_sizes), tiles, counters = _PINNED[name]
    _, result = _check(name, sizes, steps, TileSizes.of(*tile_sizes))
    assert (result.tiles_executed, result.full_tiles, result.partial_tiles) == tiles
    assert result.counters == PerformanceCounters(**counters)

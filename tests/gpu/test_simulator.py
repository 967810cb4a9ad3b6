"""Functional simulator tests: tiled execution must match the reference."""

import numpy as np

from repro.api import OptimizationConfig, Session
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

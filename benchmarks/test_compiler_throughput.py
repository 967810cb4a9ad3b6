"""Compiler-infrastructure benchmarks (not from the paper).

These measure the cost of the reproduction's own machinery — schedule
construction, validation and functional simulation — so regressions in the
polyhedral substrate show up here.
"""

from repro.api import Session
from repro.gpu.simulator import FunctionalSimulator
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.hybrid import HybridTiling, TileSizes
from repro.tiling.validate import validate_hybrid_tiling


def test_compile_heat3d_paper_scale(benchmark):
    """Building the hybrid schedule for the full-size heat 3D problem."""
    program = get_stencil("heat_3d")
    session = Session()

    run = benchmark(
        lambda: session.run(program, tile_sizes=TileSizes.of(2, 7, 10, 32))
    )
    assert run.artifact("memory").plan.shared_bytes_per_block <= 48 * 1024


def test_validate_small_jacobi(benchmark):
    """Exhaustive legality validation of a small Jacobi 2D tiling."""
    program = get_stencil("jacobi_2d", sizes=(18, 16), steps=8)
    tiling = HybridTiling(canonicalize(program), TileSizes.of(1, 2, 4))

    report = benchmark(lambda: validate_hybrid_tiling(tiling))
    assert report.ok


def test_functional_simulation_small_heat2d(benchmark):
    """Functional (interpreted) execution of a small heat 2D problem."""
    program = get_stencil("heat_2d", sizes=(16, 16), steps=6)
    run = Session().run(program, tile_sizes=TileSizes.of(2, 2, 5))
    simulator = FunctionalSimulator(
        run.artifact("tiling").tiling, run.artifact("memory").plan, run.request.config
    )
    reference = program.run_reference(seed=0)

    result = benchmark.pedantic(lambda: simulator.run(seed=0), rounds=1, iterations=1)
    assert result.matches_reference(reference)

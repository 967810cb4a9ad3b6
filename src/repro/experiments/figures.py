"""Data behind Figures 2–6 of the paper."""

from __future__ import annotations

from fractions import Fraction

from repro.codegen.ptx import PtxSummary, emit_core_ptx
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.cone import DependenceCone
from repro.tiling.hex_schedule import HexagonalSchedule, Phase
from repro.tiling.hexagon import HexagonalTileShape
from repro.tiling.hybrid import HybridTiling, TileSizes


def figure2_core_ptx(benchmark: str = "jacobi_2d") -> PtxSummary:
    """Figure 2: pseudo-PTX of the tuned Jacobi 2D core.

    The paper's block performs 3 shared loads, 1 shared store and 5 compute
    instructions, with 2 of the 5 operands reused in registers.
    """
    program = get_stencil(benchmark, sizes=(64, 64), steps=8)
    return emit_core_ptx(program)


def figure3_dependence_cone() -> dict[str, object]:
    """Figure 3: the opposite dependence cone of ``A[t][i] = f(A[t-2][i-2], A[t-1][i+2])``."""
    program = get_stencil("higher_order_time", sizes=(64,), steps=8)
    canonical = canonicalize(program)
    cone = DependenceCone.from_distance_vectors(canonical.distance_vectors)
    return {
        "distance_vectors": list(canonical.distance_vectors),
        "delta0": cone.delta0,
        "delta1": cone.delta1,
        "opposite_rays": cone.opposite_rays(),
    }


def figure4_hexagon(
    delta0: Fraction | int = 1,
    delta1: Fraction | int = 1,
    height: int = 2,
    width: int = 3,
) -> dict[str, object]:
    """Figure 4: the hexagonal tile shape (default: the figure's h=2, w0=3)."""
    cone = DependenceCone(Fraction(delta0), Fraction(delta1))
    shape = HexagonalTileShape(cone, height, width)
    return {
        "shape": shape,
        "points": shape.count(),
        "peak_width": shape.peak_width(),
        "max_width": shape.max_width(),
        "time_period": shape.time_period,
        "space_period": shape.space_period,
        "ascii": shape.render(),
    }


def figure5_tiling_pattern(
    height: int = 2, width: int = 3, extent: int = 60
) -> dict[str, object]:
    """Figure 5: the two-phase hexagonal tiling pattern and its wavefronts."""
    cone = DependenceCone(Fraction(1), Fraction(1))
    shape = HexagonalTileShape(cone, height, width)
    schedule = HexagonalSchedule(shape)
    per_phase: dict[Phase, set[tuple[int, int]]] = {Phase.BLUE: set(), Phase.GREEN: set()}
    wavefront_sizes: dict[tuple[int, Phase], set[int]] = {}
    for l in range(extent):
        for s0 in range(extent):
            assignment = schedule.assign(l, s0, check_unique=True)
            per_phase[assignment.phase].add((assignment.time_tile, assignment.space_tile))
            wavefront_sizes.setdefault(
                (assignment.time_tile, assignment.phase), set()
            ).add(assignment.space_tile)
    return {
        "blue_tiles": len(per_phase[Phase.BLUE]),
        "green_tiles": len(per_phase[Phase.GREEN]),
        "points_per_full_tile": shape.count(),
        "parallel_tiles_per_wavefront": {
            key: len(values) for key, values in sorted(wavefront_sizes.items())
        },
    }


def figure6_schedule(benchmark: str = "heat_3d") -> dict[str, str]:
    """Figure 6: the closed-form hybrid schedule for ±1 dependence distances.

    Returns the quasi-affine expressions of every output dimension for both
    phases, rendered as C expressions.
    """
    program = get_stencil(benchmark, sizes=(32, 32, 32), steps=8)
    canonical = canonicalize(program)
    tiling = HybridTiling(canonical, TileSizes.of(2, 3, 4, 4))
    result: dict[str, str] = {}
    for phase in (Phase.BLUE, Phase.GREEN):
        expressions = tiling.schedule_expressions(phase)
        for name, expression in expressions.items():
            result[f"phase{int(phase)}_{name}"] = expression.to_c()
    return result

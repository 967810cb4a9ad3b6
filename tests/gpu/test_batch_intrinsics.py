"""The batched functional simulator is bit-exact against the reference.

The simulator evaluates every barrier step as one NumPy expression, so every
intrinsic must evaluate elementwise on arrays: the clamp intrinsics
fminf/fmaxf go through ``np.minimum``/``np.maximum``, which are bit-for-bit
identical to the scalar comparison on float32 operands.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.gpu.simulator import FunctionalSimulator
from repro.model.expr import Call, Constant, FieldRead
from repro.model.program import StencilProgram, StencilStatement
from repro.stencils import get_definition, get_stencil, list_stencils
from repro.tiling.hybrid import TileSizes


def _clamped_stencil(intrinsic: str) -> StencilProgram:
    """A 2D diffusion stencil whose result is clamped through fminf/fmaxf."""
    a = "A"
    average = Constant(0.25) * (
        FieldRead(a, (1, 0))
        + FieldRead(a, (-1, 0))
        + FieldRead(a, (0, 1))
        + FieldRead(a, (0, -1))
    )
    clamped = Call(intrinsic, (average, FieldRead(a, (0, 0))))
    statement = StencilStatement("S0", a, clamped, (1, 1), (1, 1))
    return StencilProgram(f"clamp_{intrinsic}", ("i", "j"), (16, 14), 6, [statement])


def _program(name: str) -> StencilProgram:
    """A small instance of a library stencil, or a ``clamp_<intrinsic>`` program."""
    if name.startswith("clamp_"):
        return _clamped_stencil(name.removeprefix("clamp_"))
    sizes, steps = {1: ((48,), 8), 2: ((14, 12), 6), 3: ((8, 8, 8), 4)}[
        get_definition(name).dimensions
    ]
    return get_stencil(name, sizes=sizes, steps=steps)


@pytest.mark.parametrize("name", [*list_stencils(), "clamp_fminf", "clamp_fmaxf"])
def test_simulation_is_bit_exact(name):
    program = _program(name)
    # h + 1 is a multiple of the statement count; widths 3, 4, 5 per axis.
    height = 1 if program.num_statements == 1 else program.num_statements - 1
    sizes = TileSizes.of(height, *(3 + axis for axis in range(program.ndim)))
    run = Session().run(program, tile_sizes=sizes, stop_after="memory")
    simulator = FunctionalSimulator(
        run.artifact("tiling").tiling, run.artifact("memory").plan, run.request.config
    )
    result = simulator.run(seed=7)
    reference = program.run_reference(seed=7)
    assert result.final_fields.keys() == reference.keys()
    for field, expected in reference.items():
        assert np.array_equal(result.final_fields[field], expected), field


@pytest.mark.parametrize("intrinsic", ["fminf", "fmaxf"])
def test_clamped_simulation_matches_numpy_reference(intrinsic):
    program = _clamped_stencil(intrinsic)
    Session().run(program).simulate_and_check(seed=3)


def test_scalar_evaluation_unchanged():
    """On plain floats the intrinsics still compute min/max exactly."""
    expr = Call("fminf", (Constant(2.0), Constant(-1.5)))
    assert float(expr.evaluate(lambda read: 0.0)) == -1.5
    expr = Call("fmaxf", (Constant(2.0), Constant(-1.5)))
    assert float(expr.evaluate(lambda read: 0.0)) == 2.0


def test_frontend_clamp_round_trips_through_batch_simulator():
    """A Figure-1-style source using fminf parses, compiles and simulates."""
    from repro.frontend import parse_stencil

    source = """
/* clamp_source */
#define T 4
#define N0 12
#define N1 12

float A[2][N0][N1];

for (t = 0; t < T; t++) {
  for (i = 1; i < N0 - 1; i++)
#pragma ivdep
    for (j = 1; j < N1 - 1; j++)
      A[t][i][j] = fmaxf(0.0f, fminf(1.0f,
          0.25f * (A[t-1][i+1][j] + A[t-1][i-1][j]
                 + A[t-1][i][j+1] + A[t-1][i][j-1])));
}
"""
    program = parse_stencil(source)
    Session().run(program).simulate_and_check()

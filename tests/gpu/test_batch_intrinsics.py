"""fminf/fmaxf are batch-safe: the vectorised simulator no longer falls back.

Satellite of the array-native scheduling PR: the two clamp intrinsics used
to evaluate through the Python builtins ``min``/``max`` (which reject
arrays), forcing programs that use them onto the scalar interpreter.  They
now evaluate through ``np.minimum``/``np.maximum``, which are elementwise
and bit-for-bit identical to the scalar comparison on float32 operands.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.gpu.simulator import FunctionalSimulator, _program_batchable
from repro.model.expr import Call, Constant, FieldRead
from repro.model.program import StencilProgram, StencilStatement


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


@pytest.mark.parametrize("intrinsic", ["fminf", "fmaxf"])
def test_clamped_programs_are_batchable(intrinsic):
    assert _program_batchable(_clamped_stencil(intrinsic))


@pytest.mark.parametrize("intrinsic", ["fminf", "fmaxf"])
def test_batch_matches_scalar_bit_for_bit(intrinsic):
    program = _clamped_stencil(intrinsic)
    run = Session().run(program, stop_after="memory")
    tiling, plan = run.artifact("tiling").tiling, run.artifact("memory").plan
    initial = program.initial_state(seed=7)

    batch_sim = FunctionalSimulator(tiling, plan, run.request.config, batch=True)
    scalar_sim = FunctionalSimulator(tiling, plan, run.request.config, batch=False)
    assert batch_sim.batch  # no silent fallback to the scalar interpreter
    assert not scalar_sim.batch

    batch = batch_sim.run(initial={k: v.copy() for k, v in initial.items()})
    scalar = scalar_sim.run(initial={k: v.copy() for k, v in initial.items()})
    for name, value in scalar.final_fields.items():
        np.testing.assert_array_equal(batch.final_fields[name], value)
    assert batch.counters == scalar.counters
    assert batch.tiles_executed == scalar.tiles_executed


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
    assert _program_batchable(program)
    Session().run(program).simulate_and_check()

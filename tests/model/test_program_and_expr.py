"""Unit tests for the stencil program model and expression trees."""

import hashlib
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.model.expr import BinOp, Call, Constant, FieldRead, count_flops, distinct_reads
from repro.model.program import StencilProgram, StencilStatement
from repro.stencils import get_stencil


def test_flop_counting_simple():
    expr = Constant(0.5) * (FieldRead("A", (1,)) + FieldRead("A", (-1,)))
    assert count_flops(expr) == 2


def test_flop_counting_shared_subexpression_counted_once():
    diff = FieldRead("A", (1,)) - FieldRead("A", (-1,))
    expr = diff * diff + Constant(1.0)
    # one sub, one mul, one add: the shared `diff` object is a single flop.
    assert count_flops(expr) == 3


def test_distinct_reads_deduplicates():
    centre = FieldRead("A", (0, 0))
    expr = centre + centre + FieldRead("A", (1, 0))
    assert len(distinct_reads(expr)) == 2


def test_unique_reads_are_computed_once_and_kept_out_of_pickles_and_equality():
    statement = get_stencil("heat_3d").statements[0]
    unread = pickle.dumps(statement)
    reads = statement.unique_reads
    assert isinstance(reads, tuple)
    assert reads == tuple(distinct_reads(statement.expr))
    assert statement.unique_reads is reads
    assert pickle.dumps(statement) == unread
    restored = pickle.loads(unread)
    assert restored == statement and hash(restored) == hash(statement)


def test_call_validation():
    with pytest.raises(ValueError):
        Call("not_a_function", (Constant(1.0),))
    with pytest.raises(ValueError):
        BinOp("**", Constant(1.0), Constant(2.0))


def test_expr_to_c():
    expr = Constant(0.25) * (FieldRead("A", (0, 1)) + FieldRead("A", (0, -1)))
    text = expr.to_c(["i", "j"])
    assert "A[i][j + 1]" in text and "A[i][j - 1]" in text


def test_program_characteristics_and_counts():
    program = get_stencil("jacobi_2d", sizes=(10, 12), steps=4)
    statement = program.statements[0]
    assert statement.loads == 5
    assert statement.flops == 5
    assert program.interior_points(statement) == 8 * 10
    assert program.stencil_updates() == 8 * 10 * 4
    assert program.flops_total() == program.stencil_updates() * 5
    assert program.data_bytes() == 10 * 12 * 4


def _state_digest(state):
    return hashlib.sha256(b"".join(v.tobytes() for v in state.values())).hexdigest()


def test_initial_state_is_float32_per_field_and_depends_on_the_seed_only():
    program = get_stencil("fdtd_2d", sizes=(5, 7), steps=2)
    state = program.initial_state(3)
    assert list(state) == list(program.fields)
    for values in state.values():
        assert values.dtype == np.float32 and values.shape == program.sizes
    again = program.initial_state(3)
    assert all(np.array_equal(state[name], again[name]) for name in state)
    other = program.initial_state(4)
    assert not any(np.array_equal(state[name], other[name]) for name in state)
    ex, ey, hz = state.values()
    assert not np.array_equal(ex, ey) and not np.array_equal(ey, hz)
    probe = (
        "from repro.stencils import get_stencil\n"
        "state = get_stencil('fdtd_2d', sizes=(5, 7), steps=2).initial_state(3)\n"
        "import hashlib\n"
        "print(hashlib.sha256(b''.join(v.tobytes() for v in state.values()))"
        ".hexdigest())"
    )
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == _state_digest(state)


def test_reference_execution_matches_manual_jacobi():
    program = get_stencil("jacobi_2d", sizes=(8, 8), steps=3)
    initial = program.initial_state(seed=1)
    result = program.run_reference(initial)["A"]

    expected = initial["A"].astype(np.float32).copy()
    for _ in range(3):
        new = expected.copy()
        new[1:-1, 1:-1] = np.float32(0.2) * (
            expected[1:-1, 1:-1]
            + expected[2:, 1:-1]
            + expected[:-2, 1:-1]
            + expected[1:-1, 2:]
            + expected[1:-1, :-2]
        )
        expected = new
    assert np.allclose(result, expected, atol=1e-5)


def test_reference_execution_boundary_unchanged():
    program = get_stencil("heat_2d", sizes=(9, 9), steps=5)
    initial = program.initial_state(seed=2)
    result = program.run_reference(initial)["A"]
    assert np.array_equal(result[0, :], initial["A"][0, :])
    assert np.array_equal(result[:, -1], initial["A"][:, -1])


def test_reference_execution_of_an_empty_interior_changes_nothing():
    """Margins 2 and 2 on a grid of 3 leave no point to update and none to read."""
    program = get_stencil("higher_order_time", sizes=(3,), steps=2)
    initial = program.initial_state(seed=4)
    result = program.run_reference(initial)
    for field, values in initial.items():
        assert np.array_equal(result[field], values)


def test_multi_statement_fdtd_runs_and_updates_all_fields():
    program = get_stencil("fdtd_2d", sizes=(10, 10), steps=3)
    initial = program.initial_state(seed=3)
    result = program.run_reference(initial)
    for name in ("ex", "ey", "hz"):
        assert name in result
        assert not np.array_equal(result[name], initial[name])


def test_invalid_program_construction():
    statement = StencilStatement(
        "S0", "A", FieldRead("A", (0,)), (1,), (1,)
    )
    with pytest.raises(ValueError):
        StencilProgram("bad", ("i", "j"), (8,), 4, [statement])
    with pytest.raises(ValueError):
        StencilProgram("bad", ("i",), (8,), 4, [])


def test_a_read_outside_the_margins_is_refused():
    """The model checks margins as the front end does: a read of ``i+3`` with
    one layer of margin would index past the grid during simulation."""
    expr = Constant(0.5) * (FieldRead("A", (-1,)) + FieldRead("A", (3,)))
    statement = StencilStatement("S0", "A", expr, (1,), (1,))
    with pytest.raises(ValueError) as error:
        StencilProgram("margin_1d", ("i",), (40,), 4, [statement])
    assert str(error.value) == (
        "statement S0 of margin_1d: read A@t-1[3] leaves the grid: the margins "
        "along i are 1 below and 1 above, so offsets must lie in [-1, 1]"
    )
    # Three layers above make the same statement legal.
    statement = StencilStatement("S0", "A", expr, (1,), (3,))
    program = StencilProgram("margin_1d", ("i",), (40,), 4, [statement])
    assert program.spatial_radius() == 3


def test_c_source_generation():
    program = get_stencil("laplacian_2d", sizes=(16, 16), steps=4)
    source = program.c_source()
    assert "for" in source
    assert "#define N0 16" in source and "#define T 4" in source
    assert "A[t][i][j]" in source and "A[t-1]" in source
    assert "#pragma ivdep" in source
    jacobi = get_stencil("jacobi_2d", sizes=(16, 16), steps=4)
    assert "0.2f" in jacobi.c_source()   # Figure 1 source is preserved


def test_c_source_roundtrips_through_frontend():
    from repro.frontend import parse_stencil

    program = get_stencil("laplacian_2d", sizes=(16, 16), steps=4)
    parsed = parse_stencil(program.c_source())
    assert parsed.sizes == program.sizes
    assert parsed.time_steps == program.time_steps
    assert parsed.statements[0].expr == program.statements[0].expr

"""Unit tests for statement domains, dependence analysis and canonicalisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from polyhedral import lp_oracle

from repro.model.dependences import (
    DependenceError,
    DependenceKind,
    compute_dependences,
    dependence_distance_vectors,
)
from repro.model.expr import Constant, FieldRead
from repro.model.preprocess import canonicalize, statement_boxes
from repro.model.program import StencilProgram, StencilStatement
from repro.stencils import get_stencil


def test_statement_domains_are_boxes():
    program = get_stencil("jacobi_2d", sizes=(10, 12), steps=4)
    assert statement_boxes(program) == (((0, 1, 1), (3, 8, 10)),)
    rows = canonicalize(program).instances_array()
    assert rows.shape == (4 * 8 * 10, 3)
    assert len(rows) == program.stencil_updates()


def test_initial_schedule_interleaves_statements():
    program = get_stencil("fdtd_2d", sizes=(8, 8), steps=2)
    rows = canonicalize(program).instances_array()
    assert len(rows) == program.stencil_updates()
    counts = [2 * program.interior_points(s) for s in program.statements]
    # Rows come statement by statement; statement i at time t is scheduled at
    # logical time 3t + i.
    for index, block in enumerate(np.split(rows, np.cumsum(counts)[:-1])):
        assert set(block[:, 0].tolist()) == {3 * t + index for t in range(2)}


@st.composite
def box_programs(draw):
    """1-3 space axes of extent 1..9, 1..5 steps, 1-3 statements whose
    per-axis margins (0..4) differ, so some boxes are empty."""
    ndim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 9), min_size=ndim, max_size=ndim))
    # Half of the margins are 0 or 1, so most boxes still hold points.
    margin = st.integers(0, 1) | st.integers(0, 4)
    margins = st.lists(margin, min_size=ndim, max_size=ndim)
    statements = [
        StencilStatement(
            f"S{index}",
            f"F{index}",
            Constant(0.5) * FieldRead(f"F{index}", (0,) * ndim, 1),
            tuple(draw(margins)),
            tuple(draw(margins)),
        )
        for index in range(draw(st.integers(1, 3)))
    ]
    dims = ("i", "j", "k")[:ndim]
    return StencilProgram("box", dims, sizes, draw(st.integers(1, 5)), statements)


@settings(max_examples=50, deadline=None)
@given(box_programs())
def test_instances_array_equals_the_lp_enumeration(program):
    rows = canonicalize(program).instances_array()
    expected = lp_oracle.instances(program)
    assert rows.dtype == np.int64 and rows.shape == (len(expected), 1 + program.ndim)
    assert rows.tolist() == [list(point) for point in expected]
    assert len(rows) == program.stencil_updates()


def test_jacobi_flow_dependences():
    program = get_stencil("jacobi_2d", sizes=(10, 10), steps=4)
    dependences = compute_dependences(program)
    vectors = set(dependence_distance_vectors(dependences))
    assert vectors == {(1, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)}
    assert all(d.kind is DependenceKind.FLOW for d in dependences)


def test_rotating_storage_adds_anti_and_output_dependences():
    program = get_stencil("jacobi_2d", sizes=(10, 10), steps=4)
    dependences = compute_dependences(program, storage="rotating")
    kinds = {d.kind for d in dependences}
    assert DependenceKind.ANTI in kinds
    assert DependenceKind.OUTPUT in kinds
    # Every distance must still be carried by the time dimension.
    assert all(d.time_distance > 0 for d in dependences)


def test_fdtd_cross_statement_dependences():
    program = get_stencil("fdtd_2d", sizes=(8, 8), steps=2)
    dependences = compute_dependences(program)
    # hz (index 2) reads ex (index 1) produced in the same time iteration.
    hz_from_ex = [d for d in dependences if d.source == "Sex" and d.sink == "Shz"]
    assert hz_from_ex and all(d.time_distance == 1 for d in hz_from_ex)
    # ey (index 0) reads hz (index 2) from the previous iteration: distance 3-2=1...
    ey_from_hz = [d for d in dependences if d.source == "Shz" and d.sink == "Sey"]
    assert ey_from_hz and all(d.time_distance == 3 - 2 for d in ey_from_hz)


def test_paper_example_distance_vectors():
    program = get_stencil("higher_order_time", sizes=(32,), steps=8)
    vectors = set(dependence_distance_vectors(compute_dependences(program)))
    assert vectors == {(2, 2), (1, -2)}


def test_multiple_writers_rejected():
    a_writer = StencilStatement("S0", "A", Constant(1.0) * FieldRead("A", (0,)), (1,), (1,))
    a_writer2 = StencilStatement("S1", "A", Constant(2.0) * FieldRead("A", (0,)), (1,), (1,))
    program = StencilProgram("bad", ("i",), (16,), 4, [a_writer, a_writer2])
    with pytest.raises(DependenceError):
        compute_dependences(program)


def test_read_of_future_value_rejected():
    s0 = StencilStatement("S0", "A", Constant(1.0) * FieldRead("B", (0,), 0), (1,), (1,))
    s1 = StencilStatement("S1", "B", Constant(1.0) * FieldRead("B", (0,), 1), (1,), (1,))
    program = StencilProgram("bad", ("i",), (16,), 4, [s0, s1])
    with pytest.raises(DependenceError):
        compute_dependences(program)
    # A same-step read of the statement's own target, too: the simulator
    # evaluates each barrier step as one array operation and relies on it.
    own = StencilStatement("S0", "A", Constant(1.0) * FieldRead("A", (-1,), 0), (1,), (1,))
    with pytest.raises(DependenceError):
        canonicalize(StencilProgram("bad", ("i",), (16,), 4, [own]))


def test_canonical_form_round_trip_and_bounds():
    program = get_stencil("fdtd_2d", sizes=(8, 8), steps=3)
    canonical = canonicalize(program)
    assert canonical.num_statements == 3
    assert canonical.logical_time_extent == 9
    point = canonical.to_canonical(2, 1, (4, 5))
    assert point == (5, 4, 5)
    statement, t, space = canonical.from_canonical(point)
    assert (statement, t, space) == (2, 1, (4, 5))
    delta0, delta1 = canonical.space_distance_bounds(0)
    assert delta0 >= 0 and delta1 >= 0

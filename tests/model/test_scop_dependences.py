"""Unit tests for SCoP extraction, dependence analysis and canonicalisation."""

import pytest

from repro.model.dependences import (
    DependenceError,
    DependenceKind,
    compute_dependences,
    dependence_distance_vectors,
)
from repro.model.expr import Constant, FieldRead
from repro.model.preprocess import canonicalize
from repro.model.program import StencilProgram, StencilStatement
from repro.model.scop import AccessKind, build_scop
from repro.stencils import get_stencil


def test_scop_domains_and_accesses():
    program = get_stencil("jacobi_2d", sizes=(10, 12), steps=4)
    scop = build_scop(program)
    statement = scop.statements[0]
    assert statement.domain.count() == 4 * 8 * 10
    writes = statement.writes
    reads = statement.reads
    assert len(writes) == 1 and writes[0].kind is AccessKind.WRITE
    assert len(reads) == 5
    assert scop.iteration_count() == program.stencil_updates()


def test_initial_schedule_interleaves_statements():
    program = get_stencil("fdtd_2d", sizes=(8, 8), steps=2)
    scop = build_scop(program)
    # statement i at time t is scheduled at logical time 3t + i.
    for index, statement in enumerate(scop.statements):
        image = statement.schedule.apply_int_point((2, 3, 3))
        assert image[0] == 3 * 2 + index


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

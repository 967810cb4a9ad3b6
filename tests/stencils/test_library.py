"""Tests for the stencil library (the Table 3 characteristics are exact)."""

import pytest

from repro.stencils import get_stencil, list_stencils, paper_benchmarks
from repro.stencils.library import c_source_for, get_definition, jacobi_2d_source

# (loads, flops) per statement, straight from Table 3 of the paper.
TABLE3 = {
    "laplacian_2d": [(5, 6)],
    "heat_2d": [(9, 9)],
    "gradient_2d": [(5, 15)],
    "fdtd_2d": [(3, 3), (3, 3), (5, 5)],
    "laplacian_3d": [(7, 8)],
    "heat_3d": [(27, 27)],
    "gradient_3d": [(7, 20)],
}

TABLE3_SIZES = {
    "laplacian_2d": ((3072, 3072), 512),
    "heat_2d": ((3072, 3072), 512),
    "gradient_2d": ((3072, 3072), 512),
    "fdtd_2d": ((3072, 3072), 512),
    "laplacian_3d": ((384, 384, 384), 128),
    "heat_3d": ((384, 384, 384), 128),
    "gradient_3d": ((384, 384, 384), 128),
}


@pytest.mark.parametrize("name", paper_benchmarks())
def test_loads_and_flops_match_table3(name):
    program = get_stencil(name)
    expected = TABLE3[name]
    assert len(program.statements) == len(expected)
    for statement, (loads, flops) in zip(program.statements, expected):
        assert statement.loads == loads, f"{name}/{statement.name} loads"
        assert statement.flops == flops, f"{name}/{statement.name} flops"


@pytest.mark.parametrize("name", paper_benchmarks())
def test_default_sizes_match_table3(name):
    program = get_stencil(name)
    sizes, steps = TABLE3_SIZES[name]
    assert program.sizes == sizes
    assert program.time_steps == steps


def test_registry_contents():
    names = list_stencils()
    for benchmark in paper_benchmarks():
        assert benchmark in names
    assert "jacobi_2d" in names
    assert set(list_stencils(paper_only=True)) == set(paper_benchmarks())
    with pytest.raises(KeyError):
        get_stencil("does_not_exist")


def test_size_overrides():
    program = get_stencil("heat_3d", sizes=(16, 12, 10), steps=3)
    assert program.sizes == (16, 12, 10)
    assert program.time_steps == 3
    one_d = get_stencil("jacobi_1d", sizes=(64,), steps=5)
    assert one_d.sizes == (64,)


def test_characteristics_rows():
    from repro.experiments.characteristics import table3_characteristics

    rows = [row for row in table3_characteristics() if row["benchmark"] == "fdtd_2d"]
    assert len(rows) == 3
    assert rows[2]["loads"] == 5 and rows[2]["flops"] == 5


def test_figure1_source_and_c_sources():
    source = jacobi_2d_source()
    assert "A[(t+1)%2][i][j] = 0.2f" in source
    assert "#pragma ivdep" in source
    for name in ("heat_2d", "laplacian_3d"):
        assert "for" in c_source_for(name)


def test_definitions_have_descriptions():
    for name in list_stencils():
        definition = get_definition(name)
        assert definition.description
        assert definition.dimensions in (1, 2, 3)


def test_get_stencil_rejects_mismatched_sizes():
    with pytest.raises(ValueError, match="1-D but 2 sizes"):
        get_stencil("jacobi_1d", sizes=(16, 16))
    with pytest.raises(ValueError, match="3-D but 2 sizes"):
        get_stencil("heat_3d", sizes=(16, 16))
    with pytest.raises(ValueError, match="2-D but 1 sizes"):
        get_stencil("jacobi_2d", sizes=(16,))

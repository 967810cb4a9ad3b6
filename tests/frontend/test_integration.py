"""Front end integration: registry, compiler and whole-pipeline checks."""

import numpy as np
import pytest

from repro.api import Session
from repro.frontend import parse_stencil, parse_stencil_file
from repro.stencils import get_definition, get_stencil, register_from_source, unregister
from repro.tiling.hybrid import TileSizes
from repro.tiling.validate import validate_hybrid_tiling

CUSTOM = """
/* smoothing_1d */
#define T 6
#define N 64
float A[2][N];
for (t = 0; t < T; t++)
  for (i = 1; i < N - 1; i++)
    A[(t+1)%2][i] = 0.25f * A[t%2][i-1] + 0.5f * A[t%2][i] + 0.25f * A[t%2][i+1];
"""


def test_compiler_accepts_raw_source():
    run = Session().run(CUSTOM, tile_sizes=TileSizes.of(2, 4))
    assert run.artifact("parse").program.name == "smoothing_1d"
    report = validate_hybrid_tiling(run.artifact("tiling").tiling)
    assert str(report).startswith("ValidationReport(OK")
    run.simulate_and_check()


def test_parsed_program_keeps_original_source():
    program = parse_stencil(CUSTOM)
    assert program.c_source() == CUSTOM
    reparsed = parse_stencil(program.c_source())
    assert reparsed.statements[0].expr == program.statements[0].expr


def test_register_from_source_round_trips_through_registry():
    try:
        definition = register_from_source(CUSTOM)
        assert definition.name == "smoothing_1d"
        assert definition.dimensions == 1
        assert get_definition("smoothing_1d").default_sizes == (64,)

        small = get_stencil("smoothing_1d", sizes=(32,), steps=3)
        assert small.sizes == (32,)
        direct = parse_stencil(CUSTOM, sizes=(32,), time_steps=3)
        initial = small.initial_state(seed=2)
        a = small.run_reference({k: v.copy() for k, v in initial.items()})
        b = direct.run_reference({k: v.copy() for k, v in initial.items()})
        assert np.array_equal(a["A"], b["A"])
    finally:
        unregister("smoothing_1d")


def test_register_from_source_rejects_duplicates():
    try:
        register_from_source(CUSTOM)
        with pytest.raises(ValueError, match="already registered"):
            register_from_source(CUSTOM)
        register_from_source(CUSTOM, replace=True)  # explicit replace is fine
    finally:
        unregister("smoothing_1d")


def test_parse_stencil_file_reports_filename_in_errors(tmp_path):
    path = tmp_path / "broken.c"
    path.write_text(
        "for (t = 0; t < 4; t++)\n"
        "  for (i = 1; i < 15; i++)\n"
        "    A[t][i*i] = A[t-1][i];\n"
    )
    from repro.frontend import FrontendError

    with pytest.raises(FrontendError) as info:
        parse_stencil_file(str(path))
    assert str(path) in info.value.pretty()
    assert info.value.line == 3


def test_example_custom_stencil_compiles(tmp_path):
    import pathlib

    source = (
        pathlib.Path(__file__).resolve().parents[2] / "examples" / "custom_stencil.c"
    ).read_text()
    program = parse_stencil(source, sizes=(18, 18), time_steps=5)
    assert program.name == "edge_diffusion_2d"
    run = Session().run(program, tile_sizes=TileSizes.of(1, 2, 6))
    report = validate_hybrid_tiling(run.artifact("tiling").tiling)
    assert str(report).startswith("ValidationReport(OK")
    run.simulate_and_check()
    assert "edge_diffusion_2d" in run.artifact("codegen").cuda_source


def test_overridden_sizes_regenerate_faithful_source():
    # With overrides the original text's #defines would be stale, so the
    # program drops it and c_source() regenerates a form that reflects the
    # actual extents — keeping the round-trip invariant.
    program = parse_stencil(CUSTOM, sizes=(32,), time_steps=3)
    assert program.sizes == (32,)
    source = program.c_source()
    assert "#define N0 32" in source and "#define T 3" in source
    reparsed = parse_stencil(source)
    assert reparsed.sizes == (32,)
    assert reparsed.time_steps == 3
    assert reparsed.statements[0].expr == program.statements[0].expr

    # Overrides equal to the source's own extents keep the original text.
    same = parse_stencil(CUSTOM, sizes=(64,), time_steps=6)
    assert same.c_source() == CUSTOM


def test_integer_literal_at_end_of_input():
    # A digit as the very last character must still lex as an integer
    # (defines are accepted after the time loop too).
    source = (
        "for (t = 0; t < T; t++)\n"
        "  for (i = 1; i < N - 1; i++)\n"
        "    A[t][i] = A[t-1][i];\n"
        "#define N 16\n#define T 4"
    )
    program = parse_stencil(source)
    assert program.sizes == (16,)
    assert program.time_steps == 4

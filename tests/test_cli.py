"""Tests for the hexcc command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
EXAMPLE_SOURCE = GOLDEN.parents[1] / "examples" / "custom_stencil.c"
SRC = GOLDEN.parents[1] / "src"


def _run_probe(code: str) -> tuple[str, set[str]]:
    """Stdout and ``sys.modules`` of a fresh interpreter that runs ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    output, _, modules = result.stdout.rstrip("\n").rpartition("\n")
    return output, set(json.loads(modules))


def _modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    return _run_probe(code)[1]


def _main_probe(*argv: str) -> str:
    """Probe code running ``hexcc argv`` in-process; a nonzero exit raises."""
    return f"from repro.cli import main\nassert main({list(argv)!r}) == 0"


def _numpy_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "numpy"}


def test_list_command(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "heat_3d" in output and "fdtd_2d" in output


def test_validate_command_small_instance(capsys):
    code = main(["validate", "jacobi_2d", "--size", "14", "--steps", "6",
                 "--h", "1", "--widths", "2,4"])
    assert code == 0
    output = capsys.readouterr().out
    assert "matches the NumPy reference" in output


def test_compile_command(capsys):
    code = main(["compile", "heat_3d", "--h", "2", "--widths", "7,10,32"])
    assert code == 0
    output = capsys.readouterr().out
    assert "GStencils/s" in output
    assert "hybrid tiling of heat_3d" in output


def test_compile_stdout_is_pinned(capsys):
    """Header, tiling, memory plan, performance summary and CUDA, byte for byte."""
    argv = ["compile", "jacobi_1d", "--h", "1", "--widths", "4", "--show-cuda",
            "--no-cache"]
    assert main(argv) == 0
    expected = (GOLDEN / "compile_jacobi_1d.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_validate_stdout_is_pinned(capsys):
    argv = ["validate", "jacobi_2d", "--size", "12", "--steps", "8", "--no-cache"]
    assert main(argv) == 0
    expected = (GOLDEN / "validate_jacobi_2d.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


_EMPTY_INSTANCES = [
    (["validate", "jacobi_2d", "--size", "0", "--steps", "2"], "positive"),
    (["validate", "jacobi_2d", "--size", "12", "--steps", "0"], "positive"),
    (["validate", "jacobi_2d", "--size", "-3"], "positive"),
    (["validate-file", str(EXAMPLE_SOURCE), "--sizes", "16,0", "--steps", "6"],
     "positive"),
    (["validate-file", str(EXAMPLE_SOURCE), "--sizes", "16,16", "--steps", "0"],
     "positive"),
    # Positive extents that the margins leave no interior point of.
    (["validate", "higher_order_time", "--size", "3", "--steps", "1"],
     "statement S0 of higher_order_time updates no point: axis i has extent 3, "
     "but margins 2 and 2 need an extent of at least 5"),
    (["validate", "jacobi_2d", "--size", "2", "--steps", "2"],
     "statement S0 of jacobi_2d updates no point: axis i has extent 2, "
     "but margins 1 and 1 need an extent of at least 3"),
    (["validate-file", str(EXAMPLE_SOURCE), "--sizes", "2,2"],
     "statement S0 of edge_diffusion_2d updates no point: axis i has extent 2, "
     "but margins 1 and 1 need an extent of at least 3"),
    (["compile-file", str(EXAMPLE_SOURCE), "--sizes", "16,2"],
     "statement S0 of edge_diffusion_2d updates no point: axis j has extent 2, "
     "but margins 1 and 1 need an extent of at least 3"),
]


@pytest.mark.parametrize(
    "argv, message",
    _EMPTY_INSTANCES,
    ids=[f"argv{index}" for index in range(len(_EMPTY_INSTANCES))],
)
def test_empty_instances_are_usage_errors(argv, message, capsys):
    """A validation or compile of zero instances would vacuously succeed."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "matches the NumPy reference" not in captured.out
    assert "GStencils/s" not in captured.out


@pytest.mark.parametrize("number", ["1", "2"])
def test_comparison_table_stdout_is_pinned(number, capsys):
    """Every cell of Tables 1 and 2 is printed whole, brackets closed."""
    assert main(["table", number, "--no-cache"]) == 0
    expected = (GOLDEN / f"table_{number}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_cli_import_loads_no_polyhedral_enumerator():
    """Statement domains are boxes; the LP and integer-set modules are gone."""
    loaded = _modules_after("import repro.cli")
    deleted = {
        "repro.model.scop",
        "repro.polyhedral.basic_set",
        "repro.polyhedral.imap",
        "repro.polyhedral.lp",
        "repro.polyhedral.space",
    }
    assert "repro.cli" in loaded and not loaded & deleted


#: What a warm ``hexcc compile <library stencil> --show-cuda`` imports of
#: ``repro``: every pass is a disk-cache read, so only the CLI, the session
#: and the modules the cached artefacts unpickle from.
WARM_COMPILE_MODULES = {
    "repro",
    "repro._lazy",
    "repro.api",
    "repro.api.artifacts",
    "repro.api.config",
    "repro.api.errors",
    "repro.api.passes",
    "repro.api.session",
    "repro.api.strategies",
    "repro.cache",
    "repro.cache.disk",
    "repro.cache.keys",
    "repro.cli",
    "repro.codegen",
    "repro.codegen.analysis",
    "repro.codegen.kernel_ir",
    "repro.codegen.shared_mem",
    "repro.frontend",
    "repro.frontend.errors",
    "repro.gpu",
    "repro.gpu.counters",
    "repro.gpu.device",
    "repro.gpu.memory",
    "repro.gpu.perf_model",
    "repro.model",
    "repro.model.dependences",
    "repro.model.expr",
    "repro.model.preprocess",
    "repro.model.program",
    "repro.obs",
    "repro.obs.history",
    "repro.obs.log",
    "repro.obs.spans",
    "repro.polyhedral",
    "repro.polyhedral.affine",
    "repro.polyhedral.constraint",
    "repro.polyhedral.quasi_affine",
    "repro.stencils",
    "repro.stencils.library",
    "repro.tiling",
    "repro.tiling.classical",
    "repro.tiling.cone",
    "repro.tiling.hex_schedule",
    "repro.tiling.hexagon",
    "repro.tiling.hybrid",
    "repro.tiling.tile_size",
}

#: Modules a warm compile calls nothing from: the C front end, the
#: simulator, schedule validation, diamond tiling, CUDA emission and the
#: trace exporters.
NOT_ON_THE_WARM_PATH = {
    "repro.frontend.analyze",
    "repro.frontend.ast",
    "repro.frontend.lexer",
    "repro.frontend.lower",
    "repro.frontend.parser",
    "repro.gpu.simulator",
    "repro.tiling.validate",
    "repro.tiling.diamond",
    "repro.tiling.schedule_arrays",
    "repro.codegen.cuda",
    "repro.codegen.ptx",
    "repro.obs.attrib",
    "repro.obs.export",
    "repro.obs.profile",
}


#: Modules a cold compile calls nothing from: schedule validation, the
#: simulator, the symbolic verifier and the autotuner's candidate space.
NOT_ON_THE_COLD_PATH = {
    "repro.tiling.validate",
    "repro.tiling.schedule_arrays",
    "repro.gpu.simulator",
    "repro.verify.symbolic",
    "repro.tuning.space",
}


@pytest.mark.parametrize("stencil", ["jacobi_1d", "fdtd_2d", "heat_3d"])
def test_warm_compile_imports_no_numpy(stencil):
    """Neither a cold nor a warm compile imports NumPy.

    A cold compile runs only pure-Python passes, the §3.7 tile table
    included; a warm one is five cache reads and imports only what they need.
    """
    probe = _main_probe("compile", stencil, "--show-cuda")
    cold_output, cold = _run_probe(probe)
    assert not _numpy_modules(cold)
    assert not cold & NOT_ON_THE_COLD_PATH
    warm_output, loaded = _run_probe(probe)
    assert warm_output == cold_output
    assert {name for name in loaded if name.startswith("repro")} == (
        WARM_COMPILE_MODULES
    )
    assert not _numpy_modules(loaded)
    assert not loaded & NOT_ON_THE_WARM_PATH


def test_inspect_to_tiling_imports_no_numpy():
    loaded = _modules_after(_main_probe("inspect", "heat_3d", "--stop-after", "tiling"))
    assert "repro.tiling.tile_size" in loaded and not _numpy_modules(loaded)


def test_list_imports_no_numpy():
    loaded = _modules_after(_main_probe("list"))
    assert "repro.cli" in loaded and not _numpy_modules(loaded)


def test_verify_imports_the_mutation_corpus_only_for_mutants():
    loaded = _modules_after(_main_probe("verify", "heat_2d"))
    assert "repro.verify.symbolic" in loaded
    assert "repro.verify.faults" not in loaded


def test_validate_leaves_numpy_ma_unloaded():
    """Distinct counts in the simulator do not pay for importing numpy.ma."""
    loaded = _modules_after(
        "from repro.cli import main\n"
        "assert main(['validate', 'jacobi_2d', '--size', '12', '--steps', '8',"
        " '--no-cache']) == 0"
    )
    assert "repro.gpu.simulator" in loaded and "numpy.ma" not in loaded


def test_table_command_table3(capsys):
    assert main(["table", "3"]) == 0
    assert "laplacian_2d" in capsys.readouterr().out


def test_table_command_unknown_number(capsys):
    # Unknown table numbers are usage errors (uniform exit code 2).
    assert main(["table", "9"]) == 2


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_validate_command_derives_dimensionality_from_registry(capsys):
    # 1-D stencils used to be hardcoded by name; the dimensionality now comes
    # from the registry, so any registered stencil validates correctly.
    code = main(["validate", "higher_order_time", "--size", "24", "--steps", "4",
                 "--h", "1", "--widths", "6"])
    assert code == 0
    assert "matches the NumPy reference" in capsys.readouterr().out


def test_compile_file_command(tmp_path, capsys):
    path = tmp_path / "blur.c"
    path.write_text(
        "/* blur_1d */\n"
        "#define T 8\n#define N 128\n"
        "for (t = 0; t < T; t++)\n"
        "  for (i = 1; i < N - 1; i++)\n"
        "    A[t][i] = 0.25f * (A[t-1][i-1] + A[t-1][i+1]) + 0.5f * A[t-1][i];\n"
    )
    code = main(["compile-file", str(path), "--h", "2", "--widths", "8"])
    assert code == 0
    output = capsys.readouterr().out
    assert "blur_1d" in output
    assert "GStencils/s" in output


def test_compile_file_show_cuda(tmp_path, capsys):
    path = tmp_path / "blur.c"
    path.write_text(
        "#define T 4\n#define N 64\n"
        "for (t = 0; t < T; t++)\n"
        "  for (i = 1; i < N - 1; i++)\n"
        "    A[t][i] = 0.5f * (A[t-1][i-1] + A[t-1][i+1]);\n"
    )
    code = main(["compile-file", str(path), "--show-cuda", "--h", "1", "--widths", "4"])
    assert code == 0
    assert "__global__" in capsys.readouterr().out


def test_validate_file_command(tmp_path, capsys):
    path = tmp_path / "jacobi.c"
    path.write_text(
        "for (t = 0; t < T; t++)\n"
        "  for (i = 1; i < N - 1; i++)\n"
        "#pragma ivdep\n"
        "    for (j = 1; j < N - 1; j++)\n"
        "      A[(t+1)%2][i][j] = 0.2f * (A[t%2][i][j] + A[t%2][i+1][j] +\n"
        "        A[t%2][i-1][j] + A[t%2][i][j+1] + A[t%2][i][j-1]);\n"
    )
    code = main(["validate-file", str(path), "--sizes", "14,14", "--steps", "5",
                 "--h", "1", "--widths", "2,4"])
    assert code == 0
    assert "matches the NumPy reference" in capsys.readouterr().out


def test_compile_file_reports_parse_errors_with_caret(tmp_path, capsys):
    path = tmp_path / "bad.c"
    path.write_text(
        "#define T 4\n#define N 16\n"
        "for (t = 0; t < T; t++)\n"
        "  for (i = 1; i < N - 1; i++)\n"
        "    A[t][i*i] = A[t-1][i];\n"
    )
    code = main(["compile-file", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.c:5:" in err
    assert "non-affine subscript" in err
    assert "^" in err


def test_example_custom_stencil_file_compiles(capsys):
    code = main(["compile-file", str(EXAMPLE_SOURCE), "--h", "2", "--widths", "4,32"])
    assert code == 0
    assert "edge_diffusion_2d" in capsys.readouterr().out


def test_cache_stats_and_clear(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCC_CACHE_DIR", str(tmp_path / "cache"))
    # A compile populates the persistent cache...
    assert main(["compile", "jacobi_1d", "--h", "1", "--widths", "4"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    stats = capsys.readouterr().out
    # One compile stores one artifact per cacheable pass it runs
    # (canonicalize, tiling, memory, codegen, analysis).
    assert "entries    : 5" in stats
    assert str(tmp_path / "cache") in stats
    # ...and clear removes them.
    assert main(["cache", "clear"]) == 0
    assert "removed 5" in capsys.readouterr().out
    assert main(["cache", "stats"]) == 0
    assert "entries    : 0" in capsys.readouterr().out


def test_compile_reuses_the_persistent_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCC_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["compile", "jacobi_1d", "--h", "1", "--widths", "4"]) == 0
    assert main(["compile", "jacobi_1d", "--h", "1", "--widths", "4"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    stats = capsys.readouterr().out
    # The second compile reuses all five pass artifacts of the first.
    assert "hits       : 5" in stats
    assert "stores     : 5" in stats


def test_no_cache_flag_bypasses_the_disk_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCC_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["compile", "jacobi_1d", "--no-cache", "--h", "1", "--widths", "4"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    assert "entries    : 0" in capsys.readouterr().out


def test_tables_command_is_jobs_invariant(capsys):
    assert main(["tables", "3", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["tables", "3", "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel
    assert "laplacian_2d" in serial


def test_tables_command_rejects_unknown_number(capsys):
    assert main(["tables", "9"]) == 2
    assert "unknown table" in capsys.readouterr().err


# -- hexcc inspect -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "3"],
        ["tables"],
        ["tune", "jacobi_1d", "--budget", "2"],
        ["bench", "--quick"],
        ["trace", "jacobi_1d"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_jobs_is_a_usage_error(argv, capsys):
    """``--jobs 0`` means every core; a negative count is refused up front."""
    assert main([*argv, "--jobs", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a non-negative integer, got '-1'" in captured.err


def test_inspect_stop_after_tiling_json_reports_exactly_the_passes_run(capsys):
    import json

    code = main(["inspect", "heat-2d", "--stop-after", "tiling", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stencil"] == "heat_2d"
    assert payload["strategy"] == "hybrid"
    assert [entry["name"] for entry in payload["passes"]] == [
        "parse", "canonicalize", "tiling",
    ]
    for entry in payload["passes"]:
        assert entry["wall_s"] >= 0.0
        assert entry["source"] in ("computed", "memory", "disk", "injected")
    assert set(payload["artifacts"]) == {"parse", "canonicalize", "tiling"}
    assert payload["artifacts"]["tiling"]["supports_codegen"] is True


def test_inspect_full_pipeline_text_output(capsys):
    code = main(["inspect", "jacobi_2d", "--h", "2", "--widths", "3,6"])
    assert code == 0
    output = capsys.readouterr().out
    for stage in ("parse", "canonicalize", "tiling", "memory", "codegen",
                  "analysis", "verify"):
        assert stage in output
    assert "total" in output


def test_inspect_diamond_strategy_stops_at_tiling(capsys):
    code = main(["inspect", "jacobi_2d", "--strategy", "diamond",
                 "--stop-after", "tiling", "--json"])
    assert code == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["artifacts"]["tiling"]["strategy"] == "diamond"
    assert payload["artifacts"]["tiling"]["supports_codegen"] is False


def test_inspect_diamond_strategy_cannot_reach_codegen(capsys):
    # The default stop stage is past tiling, where an analysis-only plan
    # ends: an expected compile failure, so no crash report is written.
    for strategy in ("diamond", "classical"):
        code = main(["inspect", "jacobi_2d", "--strategy", strategy])
        assert code == 1
        err = capsys.readouterr().err
        assert "analysis-only" in err
        assert "crash report" not in err
    crash_dir = pathlib.Path(os.environ["HEXCC_CACHE_DIR"]) / "crash"
    assert not crash_dir.exists() or not any(crash_dir.iterdir())


# -- uniform exit codes --------------------------------------------------------------


def test_unknown_stencil_is_a_usage_error(capsys):
    assert main(["compile", "not_a_stencil"]) == 2
    assert "unknown stencil" in capsys.readouterr().err
    assert main(["inspect", "not_a_stencil"]) == 2
    assert main(["validate", "not_a_stencil"]) == 2


def test_unknown_strategy_is_a_usage_error(capsys):
    assert main(["inspect", "jacobi_2d", "--strategy", "bogus"]) == 2
    assert "unknown tiling strategy" in capsys.readouterr().err


def test_bad_stop_after_is_a_usage_error():
    assert main(["inspect", "jacobi_2d", "--stop-after", "bogus"]) == 2


def test_malformed_widths_is_a_usage_error(capsys):
    assert main(["compile", "jacobi_1d", "--widths", "x,y"]) == 2
    assert "--widths" in capsys.readouterr().err


def test_invalid_tiling_parameters_are_a_compile_failure(capsys):
    # Sizes the hybrid tiling rejects are a compile failure, not a usage
    # error, and not a fault: no crash report is written.
    cases = [
        (["heat_3d", "--widths", "4"], "expected 3 tile widths"),
        (["jacobi_2d", "--widths", "4"], "expected 2 tile widths"),
        (["fdtd_2d", "--h", "1", "--widths", "4,32"], "multiple of the number"),
        (["wide_1d", "--h", "1", "--widths", "0"], "convexity condition (1)"),
    ]
    for argv, message in cases:
        assert main(["compile", *argv]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "crash report" not in err
    crash_dir = pathlib.Path(os.environ["HEXCC_CACHE_DIR"]) / "crash"
    assert not crash_dir.exists() or not any(crash_dir.iterdir())


def test_no_fitting_tile_is_a_compile_failure(tmp_path, capsys):
    # No tile of a radius-12 3-D stencil fits in 48 KB of shared memory: the
    # program's fault, not the compiler's, so no crash report is written.
    path = tmp_path / "radius12.c"
    path.write_text(
        "#define T 16\n#define N 128\n"
        "for (t = 0; t < T; t++)\n"
        "  for (i = 12; i < N - 12; i++)\n"
        "    for (j = 12; j < N - 12; j++)\n"
        "      for (k = 12; k < N - 12; k++)\n"
        "        A[t][i][j][k] = 0.25f * (A[t-1][i-12][j][k] + A[t-1][i+12][j][k]\n"
        "            + A[t-1][i][j-12][k] + A[t-1][i][j+12][k]\n"
        "            + A[t-1][i][j][k-12] + A[t-1][i][j][k+12]);\n"
    )
    assert main(["compile-file", str(path)]) == 1
    err = capsys.readouterr().err
    # The prune counts sum to the 17 x 14 x 14 x 3 grid.
    assert "shared_memory_overflow=3570, legality=6426" in err
    assert "crash report" not in err
    crash_dir = pathlib.Path(os.environ["HEXCC_CACHE_DIR"]) / "crash"
    assert not crash_dir.exists() or not any(crash_dir.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "jacobi_2d"],
        ["compile-file", str(EXAMPLE_SOURCE)],
        ["inspect", "jacobi_2d"],
        ["verify", "jacobi_2d"],
        ["validate", "jacobi_2d"],
        ["validate-file", str(EXAMPLE_SOURCE), "--sizes", "16,16", "--steps", "6"],
    ],
    ids=lambda argv: argv[0],
)
def test_h_without_widths_is_a_usage_error(argv, capsys):
    """--h alone used to be ignored silently in favour of the model's pick."""
    assert main([*argv, "--h", "5"]) == 2
    captured = capsys.readouterr()
    assert "--h needs --widths" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "jacobi_2d"],
        ["inspect", "jacobi_2d"],
        ["verify", "jacobi_2d"],
        ["compile-file", str(EXAMPLE_SOURCE)],
    ],
    ids=lambda argv: argv[0],
)
def test_unknown_device_is_a_usage_error(argv, capsys):
    assert main([*argv, "--device", "foo"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown device 'foo'; known: gtx470, nvs5200m\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["list"], ["compile", "jacobi_1d", "--show-cuda"]],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_pipe_exits_one_silently(argv):
    """``hexcc ... | head`` once printed ``error: : Broken pipe``."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert result.stderr == ""
    assert result.returncode == 1


def test_missing_command_is_a_usage_error():
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "hexcc" in capsys.readouterr().out


# -- autotuning ----------------------------------------------------------------------


def test_tune_command_records_and_reports(tmp_path, monkeypatch, capsys):
    db_path = tmp_path / "tuning.json"
    monkeypatch.setenv("HEXCC_TUNING_DB", str(db_path))
    code = main(["tune", "jacobi_2d", "--budget", "4", "--objective", "model",
                 "--seed", "3"])
    assert code == 0
    output = capsys.readouterr().out
    assert "tuned jacobi_2d" in output
    assert "improvement" in output
    assert db_path.is_file()
    assert str(db_path) in output


def test_tune_then_compile_tuned_applies_the_entry(tmp_path, monkeypatch, capsys):
    db_path = tmp_path / "tuning.json"
    monkeypatch.setenv("HEXCC_TUNING_DB", str(db_path))
    assert main(["tune", "heat_2d", "--budget", "4", "--objective", "model"]) == 0
    capsys.readouterr()
    assert main(["compile", "heat_2d", "--tuned"]) == 0
    assert "applying tuned configuration" in capsys.readouterr().out


def test_compile_tuned_without_entry_falls_back(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCC_TUNING_DB", str(tmp_path / "empty.json"))
    assert main(["compile", "gradient_3d", "--tuned"]) == 0
    output = capsys.readouterr().out
    assert "no tuned configuration" in output
    assert "GStencils/s" in output


def test_compile_tuned_never_applies_a_simulate_entry(tmp_path, capsys):
    # A user database from before the simulate objective was retired still
    # loads, but --tuned ignores its entries and compiles the §3.7 pick.
    from repro.api.session import program_digest
    from repro.stencils import get_stencil
    from repro.tuning import TuningDatabase

    db = TuningDatabase()
    db.record({
        "program": "jacobi_2d",
        "digest": program_digest(get_stencil("jacobi_2d")),
        "device": "GTX 470",
        "strategy": "random",
        "objective": "simulate",
        "best": {"height": 1, "widths": [20, 32], "threads": None, "score": 1e-3},
    })
    path = db.save(tmp_path / "old.json")
    assert main(["compile", "jacobi_2d"]) == 0
    plain = capsys.readouterr().out
    assert main(["compile", "jacobi_2d", "--tuned", "--tuning-db", str(path)]) == 0
    output = capsys.readouterr().out
    assert output.startswith("no tuned configuration recorded")
    assert output.endswith(plain)
    assert main(["tune-table", "--tuning-db", str(path)]) == 0
    assert "simulate" in capsys.readouterr().out


def test_compile_tuned_reads_committed_baseline(capsys):
    # No env override, no user db (cache dir is per-test): the resolution
    # chain ends at the committed package baseline, which covers heat_3d.
    assert main(["compile", "heat3d", "--tuned"]) == 0
    assert "applying tuned configuration" in capsys.readouterr().out


def test_tune_json_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCC_TUNING_DB", str(tmp_path / "tuning.json"))
    assert main(["tune", "jacobi_1d", "--budget", "3", "--objective", "model",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.split("recorded the winner")[0])
    assert payload["program"] == "jacobi_1d"
    assert payload["seed"] == 0
    assert len(payload["trials"]) == 3


def test_tune_check_passes_against_fresh_db(tmp_path, monkeypatch, capsys):
    db_path = tmp_path / "tuning.json"
    monkeypatch.setenv("HEXCC_TUNING_DB", str(db_path))
    args = ["tune", "jacobi_2d", "--budget", "4", "--objective", "model"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--check"]) == 0
    assert "check OK" in capsys.readouterr().out


def test_tune_check_fails_without_recorded_entry(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCC_TUNING_DB", str(tmp_path / "missing.json"))
    code = main(["tune", "jacobi_2d", "--budget", "3", "--objective", "model",
                 "--check"])
    assert code == 1
    assert "no 'model' entry" in capsys.readouterr().err


def test_tune_usage_errors(capsys):
    assert main(["tune", "jacobi_2d", "--strategy", "bogus"]) == 2
    assert "unknown search strategy" in capsys.readouterr().err
    for objective in ("bogus", "simulate"):
        assert main(["tune", "jacobi_2d", "--objective", objective]) == 2
        err = capsys.readouterr().err
        assert "unknown tuning objective" in err and "known: counters, model" in err
    assert main(["tune", "jacobi_2d", "--budget", "0"]) == 2
    assert main(["tune", "not_a_stencil"]) == 2
    # A threshold that is not a finite, non-negative fraction would switch
    # the --check gate off (nan, inf) or fail an equal score (negative).
    for threshold in ("nan", "inf", "-0.5"):
        args = ["tune", "jacobi_2d", "--check", "--max-regression", threshold]
        assert main(args) == 2
        assert "--max-regression" in capsys.readouterr().err


def test_tune_table_command(tmp_path, monkeypatch, capsys):
    db_path = tmp_path / "tuning.json"
    monkeypatch.setenv("HEXCC_TUNING_DB", str(db_path))
    assert main(["tune", "jacobi_2d", "--budget", "4", "--objective", "model"]) == 0
    capsys.readouterr()
    assert main(["tune-table"]) == 0
    output = capsys.readouterr().out
    assert "jacobi_2d" in output and "speedup" in output


def test_tune_table_empty_db(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEXCC_TUNING_DB", str(tmp_path / "none.json"))
    assert main(["tune-table"]) == 0
    assert "empty" in capsys.readouterr().out


def test_compact_stencil_names_resolve(capsys):
    assert main(["inspect", "heat3d", "--stop-after", "parse"]) == 0
    assert "heat_3d" in capsys.readouterr().out


def test_inspect_tiling_json_reports_pruned_reasons(capsys):
    assert main(["inspect", "heat_3d", "--stop-after", "tiling", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    pruned = payload["artifacts"]["tiling"]["model_pruned"]
    assert pruned["shared_memory_overflow"] > 0
    assert pruned.keys() == {"shared_memory_overflow", "legality", "evaluated"}
    assert pruned["evaluated"] > 0


def test_inspect_tiling_json_reports_the_runner_up_and_its_margin(capsys):
    assert main(["inspect", "heat_3d", "--stop-after", "tiling", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    tiling = payload["artifacts"]["tiling"]
    runner_up = tiling["model_runner_up"]
    assert runner_up.keys() == {
        "tile_height", "tile_widths", "load_to_compute", "margin"
    }
    pick = tiling["model_loads_per_tile"] / tiling["model_iterations_per_tile"]
    assert runner_up["margin"] == runner_up["load_to_compute"] - pick >= 0
    assert [runner_up["tile_height"], *runner_up["tile_widths"]] != [
        tiling["tile_height"], *tiling["tile_widths"]
    ]
    # Nested, so it adds no bench counter to the tiling pass.
    (event,) = (event for event in payload["passes"] if event["name"] == "tiling")
    assert not any(name.startswith("model_runner_up") for name in event["counters"])


def test_explicit_widths_suppress_tuned_announcement(capsys):
    # --tuned with explicit --widths: the explicit sizes win, so no tuned
    # configuration is announced (the baseline DB does have a heat_3d entry).
    assert main(["compile", "heat_3d", "--tuned", "--h", "2",
                 "--widths", "7,10,32"]) == 0
    output = capsys.readouterr().out
    assert "applying tuned configuration" not in output
    assert "h=2, w=(7, 10, 32)" in output


# -- observability: hexcc trace / profile / bench --trace -----------------------------


def test_trace_command_writes_a_valid_chrome_trace(tmp_path, capsys):
    from repro.obs.validate import validate_chrome_trace

    out = tmp_path / "trace.json"
    assert main(["trace", "jacobi_2d", "-o", str(out), "--jobs", "2"]) == 0
    assert "wrote" in capsys.readouterr().out
    document = json.loads(out.read_text())
    assert validate_chrome_trace(document) == []

    events = [e for e in document["traceEvents"] if e["ph"] == "X"]
    names = {e["name"] for e in events}
    # All six pipeline passes, cache I/O and the engine fan-out are traced.
    assert {f"pass.{stage}" for stage in (
        "parse", "canonicalize", "tiling", "memory", "codegen", "analysis",
    )} <= names
    assert {"session.run", "cache.put", "engine.map_ordered", "engine.worker"} <= names
    # --jobs 2 really fanned across distinct worker processes.
    worker_pids = {e["pid"] for e in events if e["name"] == "engine.worker"}
    assert len(worker_pids) == 2


def test_trace_command_serial_without_cache(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "heat3d", "-o", str(out), "--jobs", "1",
                 "--no-cache"]) == 0
    document = json.loads(out.read_text())
    names = {e["name"] for e in document["traceEvents"]}
    assert "cache.put" not in names  # --no-cache: no disk-cache I/O
    assert "engine.item" in names  # serial fan-out still traced


def test_profile_command_table(capsys):
    assert main(["profile", "jacobi_2d"]) == 0
    output = capsys.readouterr().out
    assert "profile of jacobi_2d" in output
    assert "pass.tiling" in output
    assert output.strip().splitlines()[-1].startswith("total")


def test_profile_command_json_exclusive_sums_to_total(capsys):
    assert main(["profile", "jacobi_2d", "--json", "--no-cache"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stencil"] == "jacobi_2d"
    total = payload["total_wall_s"]
    accounted = sum(row["exclusive_s"] for row in payload["rows"])
    # The exclusive-time ranking accounts for the total wall time (5% slack
    # for clamped concurrent subtrees; exact for this serial trace).
    assert total > 0
    assert abs(accounted - total) <= 0.05 * total
    names = {row["name"] for row in payload["rows"]}
    assert "pass.tiling" in names


def test_bench_trace_flag_writes_a_trace(tmp_path, capsys):
    from repro.obs.validate import validate_chrome_trace

    out = tmp_path / "bench_trace.json"
    code = main(["bench", "--suite", "compile", "--stencils", "jacobi_1d",
                 "--repeats", "1", "--json", str(tmp_path / "bench.json"),
                 "--trace", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert validate_chrome_trace(document) == []
    names = {e["name"] for e in document["traceEvents"]}
    assert {"bench.run", "bench.measure"} <= names


def test_bench_json_report_contains_per_stage_timings(tmp_path, capsys):
    path = tmp_path / "bench.json"
    code = main(["bench", "--suite", "compile", "--stencils", "jacobi_1d",
                 "--repeats", "1", "--json", str(path)])
    assert code == 0
    report = json.loads(path.read_text())
    timings = report["suites"]["compile"]["stencils"]["jacobi_1d"]["timings"]
    for stage in ("parse", "canonicalize", "tiling", "memory", "codegen"):
        entry = timings[f"pass.{stage}"]
        assert entry["median"] >= 0.0


def test_inspect_json_contains_span_derived_timings(capsys):
    assert main(["inspect", "jacobi_2d", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    timings = payload["timings"]
    assert set(timings) == {
        f"pass.{stage}" for stage in (
            "parse", "canonicalize", "tiling", "memory", "codegen", "analysis",
            "verify",
        )
    }
    # Same timing source: the timings block mirrors the pass events exactly.
    for entry in payload["passes"]:
        assert timings[f"pass.{entry['name']}"]["wall_ms"] == entry["wall_s"] * 1e3


# -- observability: hexcc perf ------------------------------------------------------


def test_perf_history_empty(capsys):
    assert main(["perf", "history"]) == 0
    assert "no run history yet" in capsys.readouterr().out


def test_perf_history_limit_must_be_positive(capsys):
    assert main(["compile", "jacobi_1d", "--h", "1", "--widths", "4"]) == 0
    capsys.readouterr()
    for limit in ("0", "-1"):
        assert main(["perf", "history", "--limit", limit]) == 2
        assert "positive integer" in capsys.readouterr().err
    assert main(["perf", "history", "--limit", "1", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1


def test_compiles_land_in_perf_history(capsys):
    assert main(["compile", "jacobi_1d", "--h", "1", "--widths", "4"]) == 0
    assert main(["compile", "heat_2d", "--h", "2", "--widths", "3,6"]) == 0
    capsys.readouterr()
    assert main(["perf", "history"]) == 0
    output = capsys.readouterr().out
    assert "jacobi_1d" in output and "heat_2d" in output
    assert main(["perf", "history", "--kind", "compile", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["program"] for r in payload] == ["jacobi_1d", "heat_2d"]
    assert all(r["kind"] == "compile" for r in payload)
    assert all(p["wall_ms"] >= 0.0 for p in payload[0]["passes"])


def test_perf_diff_attributes_an_injected_slowdown(monkeypatch, capsys):
    """The acceptance pin, end to end through the CLI: a delay injected

    into the tiling pass is named guilty by ``hexcc perf diff``."""
    args = ["compile", "jacobi_1d", "--no-cache", "--h", "1", "--widths", "4"]
    assert main(args) == 0
    monkeypatch.setenv("HEXCC_FAULT_DELAY", "tiling:40")
    assert main(args) == 0
    capsys.readouterr()
    assert main(["perf", "diff", "last~1", "last"]) == 0
    output = capsys.readouterr().out
    assert "guilty pass: tiling" in output
    assert main(["perf", "diff", "last~1", "last", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["attribution"]["guilty"] == "tiling"
    assert payload["attribution"]["guilty_share"] > 0.5
    assert payload["attribution"]["total_delta_ms"] > 30.0


@pytest.mark.parametrize("delay", ["tiling:-5", "tiling:nan", "tiling:inf"])
def test_unsleepable_fault_delays_are_skipped(delay, monkeypatch, capsys):
    """An amount ``time.sleep`` refuses is skipped like an unparseable one."""
    monkeypatch.setenv("HEXCC_FAULT_DELAY", delay)
    assert main(["compile", "jacobi_1d", "--no-cache"]) == 0
    assert "crash report" not in capsys.readouterr().err
    crash_dir = pathlib.Path(os.environ["HEXCC_CACHE_DIR"]) / "crash"
    assert not crash_dir.exists() or not any(crash_dir.iterdir())


def test_perf_diff_bad_selector_is_a_usage_error(capsys):
    assert main(["perf", "diff", "last", "zzzz"]) == 2
    assert main(["perf", "diff", "last", "last"]) == 2  # history is empty


def test_pipeline_failures_print_the_crash_report_path(monkeypatch, capsys):
    from repro.api import Session

    def explode(self, pipeline_pass, key, request, artifacts):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(Session, "_fetch_or_run", explode)
    with pytest.raises(RuntimeError):
        main(["compile", "jacobi_1d"])
    err = capsys.readouterr().err
    assert "crash report: " in err
    path = err.split("crash report: ", 1)[1].strip().splitlines()[0]
    assert json.loads(open(path).read())["error"]["message"] == "synthetic fault"


# -- verify ---------------------------------------------------------------------------


def test_verify_clean_stencil_exits_zero(capsys):
    assert main(["verify", "jacobi_2d"]) == 0
    output = capsys.readouterr().out
    assert "OK" in output and "no races" in output
    assert "lint 0 error(s)" in output
    assert "1 verified, 0 failed" in output


def test_verify_json_reports_schedule_and_lint(capsys):
    assert main(["verify", "heat_2d", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    (row,) = payload["results"]
    assert row["stencil"] == "heat_2d"
    assert row["strategy"] == "hybrid"
    assert row["summary"]["ok"] is True
    assert row["schedule"]["races"] == []
    assert row["schedule"]["coverage_ok"] is True
    assert row["schedule"]["classes_checked"] > 0
    assert row["lint"]["errors"] == 0
    assert row["lint"]["kernels"]  # the linter saw the generated kernels


def test_verify_classical_and_diamond_have_no_lint_block(capsys):
    assert main(["verify", "jacobi_2d", "--strategy", "classical", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (row,) = payload["results"]
    assert row["schedule"]["ok"] is True
    assert row["lint"] is None  # analysis-only: no generated code to lint
    assert main(["verify", "jacobi_2d", "--strategy", "diamond", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["schedule"]["ok"] is True


def test_verify_all_strategies_skips_inapplicable_combos(capsys):
    # higher_order_time has a dependence slope > 1, which the diamond
    # construction rejects; a sweep reports the skip instead of failing.
    assert main(["verify", "higher_order_time", "--strategy", "all"]) == 0
    output = capsys.readouterr().out
    assert "SKIP" in output and "skipped (strategy not applicable)" in output


def test_verify_single_inapplicable_combo_propagates(capsys):
    assert main(["verify", "higher_order_time", "--strategy", "diamond"]) == 1
    assert "diamond" in capsys.readouterr().err


def test_verify_mutation_is_caught_and_exits_one(capsys):
    assert main(["verify", "jacobi_2d", "--mutate", "phase-swap"]) == 1
    output = capsys.readouterr().out
    assert "FAIL" in output
    assert "race [phase]" in output
    assert "1 verified, 1 failed" in output


def test_verify_mutation_json_has_counterexample_instances(capsys):
    assert main(["verify", "jacobi_1d", "--mutate", "dropped-barrier",
                 "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    (row,) = payload["results"]
    race = row["schedule"]["races"][0]
    assert race["level"] == "barrier"
    assert race["source"]["statement"] and race["sink"]["statement"]
    assert race["source"]["schedule"] and race["sink"]["schedule"]


def test_verify_list_mutations(capsys):
    assert main(["verify", "--list-mutations"]) == 0
    output = capsys.readouterr().out
    for name in ("phase-swap", "dropped-barrier", "flipped-tile-order",
                 "shrunk-hexagon-upper", "grown-hexagon", "dropped-skew"):
        assert name in output


def test_verify_usage_errors(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "not_a_stencil"]) == 2
    assert main(["verify", "jacobi_2d", "--strategy", "bogus"]) == 2
    assert main(["verify", "jacobi_2d", "--mutate", "not-a-mutation"]) == 2
    assert "unknown mutation" in capsys.readouterr().err
    # mutations perturb the hybrid model only
    assert main(["verify", "jacobi_2d", "--strategy", "classical",
                 "--mutate", "phase-swap"]) == 2
    capsys.readouterr()
    # a 1-D stencil has no inner tiled dimension for these mutants to perturb
    for mutation in ("flipped-tile-order", "dropped-skew", "flipped-skew"):
        assert main(["verify", "jacobi_1d", "--mutate", mutation]) == 2
        captured = capsys.readouterr()
        assert "needs an inner tiled dimension" in captured.err
        assert "verified" not in captured.out


def test_verify_all_json_is_pinned(capsys):
    """Every verdict and class count of the library under all strategies."""
    argv = ["verify", "all", "--strategy", "all", "--json", "--no-cache"]
    assert main(argv) == 0
    expected = (GOLDEN / "verify_all_strategy_all.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected

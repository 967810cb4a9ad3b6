"""End-to-end smoke tests of ``hexcc bench`` on one tiny stencil."""

import json

from pathlib import Path

import pytest

from repro.bench.runner import BenchOptions, run_bench
from repro.bench.schema import load_report
from repro.cli import main


def test_run_bench_simulate_one_stencil():
    report = run_bench(
        BenchOptions(suites=("simulate",), quick=True, repeats=1,
                     stencils=("jacobi_1d",))
    )
    entry = report["suites"]["simulate"]["stencils"]["jacobi_1d"]
    assert entry["wall_s"]["median"] > 0
    assert entry["stages"]["validate_s"]["median"] > 0
    assert entry["counters"]["stencil_updates"] > 0
    assert entry["meta"]["tiles_executed"] > 0


def test_hexcc_bench_json_smoke(tmp_path, capsys):
    out = tmp_path / "bench_out.json"
    code = main([
        "bench", "--suite", "simulate", "--stencils", "jacobi_1d",
        "--repeats", "1", "--json", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "jacobi_1d" in captured
    report = load_report(out)  # validates the schema on load
    assert set(report["suites"]) == {"simulate"}
    assert "jacobi_1d" in report["suites"]["simulate"]["stencils"]


def test_hexcc_bench_per_suite_files(tmp_path):
    code = main([
        "bench", "--stencils", "jacobi_1d", "--repeats", "1",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    for suite in ("compile", "simulate"):
        report = load_report(tmp_path / f"BENCH_{suite}.json")
        assert set(report["suites"]) == {suite}


def test_hexcc_bench_rejects_unknown_stencil(tmp_path, capsys):
    code = main(["bench", "--stencils", "no_such_stencil",
                 "--json", str(tmp_path / "x.json")])
    assert code == 2
    assert "no_such_stencil" in capsys.readouterr().err


@pytest.mark.parametrize("repeats", ["0", "-5"])
def test_hexcc_bench_rejects_non_positive_repeats(tmp_path, repeats, capsys):
    # A count below one is refused before anything is measured, not
    # clamped to a single repeat.
    out = tmp_path / "x.json"
    code = main(["bench", "--stencils", "jacobi_1d", "--repeats", repeats,
                 "--json", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--repeats" in captured.err
    assert not out.exists()


def test_checked_in_baseline_is_schema_valid():
    baseline = Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_baseline.json"
    report = load_report(baseline)
    assert report["quick"] is True
    assert set(report["suites"]) == {"compile", "simulate"}
    # the CI gate relies on these stencils being present
    for name in ("jacobi_1d", "jacobi_2d", "heat_2d", "fdtd_2d", "laplacian_3d"):
        assert name in report["suites"]["compile"]["stencils"]
        assert name in report["suites"]["simulate"]["stencils"]


def test_baseline_counters_match_current_pipeline():
    """The deterministic counters in the baseline must match a fresh run.

    Guards against committing a stale baseline after a pipeline change: wall
    times may drift with the machine, counters may not.
    """
    baseline = json.loads(
        (Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_baseline.json")
        .read_text()
    )
    fresh = run_bench(
        BenchOptions(suites=("simulate",), quick=True, repeats=1,
                     stencils=("jacobi_1d",))
    )
    old = baseline["suites"]["simulate"]["stencils"]["jacobi_1d"]["counters"]
    new = fresh["suites"]["simulate"]["stencils"]["jacobi_1d"]["counters"]
    assert old == new

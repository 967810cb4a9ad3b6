"""Comparator tests: regression, improvement, missing-key and CLI behaviour."""

import argparse
import json

import pytest

from repro.bench.compare import compare_reports, main, parse_threshold
from repro.bench.schema import make_report, timing_entry


def report_with(median, counters=None, stencil="heat_2d", suite="simulate"):
    return make_report(
        {
            suite: {
                stencil: {
                    "wall_s": timing_entry([median]),
                    "counters": counters or {"flops": 1000.0},
                    "meta": {},
                }
            }
        },
        quick=True,
        repeats=1,
    )


def test_identical_reports_ok():
    baseline = report_with(0.1)
    result = compare_reports(baseline, baseline)
    assert result.ok
    assert not result.regressions and not result.improvements
    assert "OK" in result.summary()


def test_regression_detected_past_threshold():
    result = compare_reports(report_with(0.1), report_with(0.13), max_regression=0.25)
    assert not result.ok
    assert len(result.regressions) == 1
    delta = result.regressions[0]
    assert delta.stencil == "heat_2d"
    assert delta.ratio == pytest.approx(1.3)
    assert "REGRESSION" in result.summary()


def test_slowdown_within_threshold_ok():
    result = compare_reports(report_with(0.1), report_with(0.12), max_regression=0.25)
    assert result.ok


def test_exactly_threshold_regression_fails():
    result = compare_reports(
        report_with(0.1), report_with(0.1 * 1.25), max_regression=0.25
    )
    assert not result.ok


def test_zero_threshold_identical_medians_ok():
    result = compare_reports(report_with(0.1), report_with(0.1), max_regression=0.0)
    assert result.ok


def test_improvement_reported_not_failing():
    result = compare_reports(report_with(0.1), report_with(0.05), max_regression=0.25)
    assert result.ok
    assert len(result.improvements) == 1


def test_noise_floor_suppresses_fast_entries():
    # 2x slower, but the baseline is below the 1 ms noise floor.
    result = compare_reports(report_with(0.0002), report_with(0.0004))
    assert result.ok


def test_missing_stencil_fails():
    baseline = make_report(
        {
            "simulate": {
                "heat_2d": {"wall_s": timing_entry([0.1]), "counters": {}, "meta": {}},
                "jacobi_2d": {"wall_s": timing_entry([0.1]), "counters": {}, "meta": {}},
            }
        },
        quick=True,
        repeats=1,
    )
    result = compare_reports(baseline, report_with(0.1))
    assert not result.ok
    assert result.missing == ["simulate/jacobi_2d"]


def test_added_stencil_reported_ok():
    new = make_report(
        {
            "simulate": {
                "heat_2d": {"wall_s": timing_entry([0.1]), "counters": {}, "meta": {}},
                "extra": {"wall_s": timing_entry([0.1]), "counters": {}, "meta": {}},
            }
        },
        quick=True,
        repeats=1,
    )
    result = compare_reports(report_with(0.1, counters={}), new)
    assert result.ok
    assert result.added == ["simulate/extra"]


def test_counter_drift_reported():
    result = compare_reports(
        report_with(0.1, counters={"flops": 1000.0}),
        report_with(0.1, counters={"flops": 1001.0}),
    )
    assert result.ok  # informational by default
    assert len(result.counter_drifts) == 1
    assert result.counter_drifts[0].metric == "counters.flops"


@pytest.mark.parametrize(
    "text,expected", [("25%", 0.25), ("0.25", 0.25), (" 10% ", 0.10), ("1.5", 1.5)]
)
def test_parse_threshold(text, expected):
    assert parse_threshold(text) == pytest.approx(expected)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "-0.5", "-5%", "fast"])
def test_parse_threshold_rejects_non_thresholds(text):
    # nan and inf would pass every regression; a negative value fails an
    # equal score.
    with pytest.raises(argparse.ArgumentTypeError):
        parse_threshold(text)


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_cli_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.json", report_with(0.1))
    bad = _write(tmp_path, "bad.json", report_with(0.2))
    assert main([good, good, "--max-regression", "25%"]) == 0
    assert main([good, bad, "--max-regression", "25%"]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # a generous threshold lets the 2x slowdown through
    assert main([good, bad, "--max-regression", "150%"]) == 0
    # nan must not: it is a usage error, not a threshold every score passes
    with pytest.raises(SystemExit) as exit_:
        main([good, bad, "--max-regression", "nan"])
    assert exit_.value.code == 2


def test_cli_strict_counters(tmp_path):
    old = _write(tmp_path, "old.json", report_with(0.1, counters={"flops": 1.0}))
    new = _write(tmp_path, "new.json", report_with(0.1, counters={"flops": 2.0}))
    assert main([old, new]) == 0
    assert main([old, new, "--strict-counters"]) == 1


def test_cli_rejects_malformed_report(tmp_path):
    good = _write(tmp_path, "good.json", report_with(0.1))
    broken = tmp_path / "broken.json"
    broken.write_text("{}")
    assert main([good, str(broken)]) == 2


# -- regression attribution ----------------------------------------------------------


def report_with_passes(pass_ms, stencil="jacobi_1d"):
    """A compile-suite report with per-pass timings (ms) and provenance."""
    total_s = sum(pass_ms.values()) / 1e3
    return make_report(
        {
            "compile": {
                stencil: {
                    "wall_s": timing_entry([total_s]),
                    "counters": {},
                    "meta": {},
                    "timings": {
                        f"pass.{name}": timing_entry([ms / 1e3])
                        for name, ms in pass_ms.items()
                    },
                    "sources": {f"pass.{name}": {"computed": 1} for name in pass_ms},
                }
            }
        },
        quick=True,
        repeats=1,
    )


def test_regression_is_attributed_to_the_guilty_pass(tmp_path, capsys):
    baseline = report_with_passes({"parse": 1.0, "tiling": 4.0, "codegen": 5.0})
    slower = report_with_passes({"parse": 1.0, "tiling": 44.0, "codegen": 5.0})
    result = compare_reports(baseline, slower, max_regression=0.25)
    assert not result.ok
    (delta,) = result.regressions
    assert delta.attribution is not None
    assert delta.attribution.guilty == "tiling"
    assert delta.attribution.guilty_share > 0.5
    summary = result.summary()
    assert "guilty pass: tiling" in summary
    # ...and the CLI gate prints the same verdict on failure.
    old = _write(tmp_path, "old.json", baseline)
    new = _write(tmp_path, "new.json", slower)
    assert main([old, new, "--max-regression", "25%"]) == 1
    assert "guilty pass: tiling" in capsys.readouterr().out


def test_regression_without_pass_timings_has_no_attribution():
    result = compare_reports(report_with(0.1), report_with(0.2))
    (delta,) = result.regressions
    assert delta.attribution is None
    assert "REGRESSION" in result.summary()  # still reported, just bare


def test_cache_tier_flip_is_called_out_not_blamed():
    baseline = report_with_passes({"tiling": 0.1, "codegen": 5.0})
    baseline_entry = baseline["suites"]["compile"]["stencils"]["jacobi_1d"]
    baseline_entry["sources"]["pass.tiling"] = {"disk": 1}
    slower = report_with_passes({"tiling": 40.0, "codegen": 5.0})
    result = compare_reports(baseline, slower, max_regression=0.25)
    (delta,) = result.regressions
    assert delta.attribution.guilty is None
    assert "dominated by cache-tier change" in result.summary()

"""Diff two ``BENCH_*.json`` reports and gate on regressions.

Usable as a library (:func:`compare_reports`) and as a CLI::

    python -m repro.bench.compare BENCH_baseline.json bench_out.json \
        --max-regression 25%

Exit codes: ``0`` no regression, ``1`` regression (or a stencil disappeared
from the new report), ``2`` bad usage or malformed report.

Wall-time entries regress when ``new >= old * (1 + threshold)`` on the
*minimum* wall time (best-of-N is robust to scheduling noise, which only
ever adds time; a real regression slows every run) and the old time is
above the noise floor (``--min-time``).  Counters are
deterministic, so any counter drift is reported; it fails the comparison
only with ``--strict-counters`` (wall time is environment-noise, counters
drifting means the pipeline itself changed behaviour).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Mapping
from typing import Any

from repro._record import dataclass, field
from repro.bench.schema import SchemaError, load_report
from repro.obs.attrib import Attribution, attribute_entries

DEFAULT_MAX_REGRESSION = 0.25
DEFAULT_MIN_TIME = 1e-3  # seconds; entries faster than this never regress


@dataclass(frozen=True)
class Delta:
    """One measured difference between the two reports."""

    suite: str
    stencil: str
    metric: str
    old: float
    new: float
    #: Per-pass decomposition of a wall-time regression (compile-suite
    #: entries carry per-pass timings); ``None`` when not derivable.
    attribution: Attribution | None = field(default=None, compare=False)

    @property
    def ratio(self) -> float:
        if self.old == 0:
            return float("inf") if self.new else 1.0
        return self.new / self.old

    def __str__(self) -> str:
        return (
            f"{self.suite}/{self.stencil} {self.metric}: "
            f"{self.old:.6g} -> {self.new:.6g} ({self.ratio:.2f}x)"
        )


@dataclass
class ComparisonResult:
    """Outcome of diffing a baseline report against a new report."""

    threshold: float
    regressions: list[Delta] = field(default_factory=list)
    improvements: list[Delta] = field(default_factory=list)
    counter_drifts: list[Delta] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    added: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No wall-time regression and no entry vanished from the new report."""
        return not self.regressions and not self.missing

    def summary(self) -> str:
        lines = [
            f"compared with max regression {self.threshold:.0%}: "
            + ("OK" if self.ok else "FAIL")
        ]
        for delta in self.regressions:
            lines.append(f"  REGRESSION {delta}")
            if delta.attribution is not None:
                for line in delta.attribution.describe().splitlines():
                    lines.append(f"    {line}")
        for key in self.missing:
            lines.append(f"  MISSING    {key} (in baseline, absent from new report)")
        for delta in self.counter_drifts:
            lines.append(f"  COUNTER    {delta}")
        for delta in self.improvements:
            lines.append(f"  improved   {delta}")
        for key in self.added:
            lines.append(f"  added      {key}")
        return "\n".join(lines)


def compare_reports(
    baseline: Mapping[str, Any],
    new: Mapping[str, Any],
    max_regression: float = DEFAULT_MAX_REGRESSION,
    min_time: float = DEFAULT_MIN_TIME,
) -> ComparisonResult:
    """Compare two schema-valid reports; see the module docstring for rules."""
    if max_regression < 0:
        raise ValueError("max_regression must be non-negative")
    result = ComparisonResult(threshold=max_regression)

    old_suites = baseline["suites"]
    new_suites = new["suites"]
    for suite_name, old_suite in old_suites.items():
        new_suite = new_suites.get(suite_name)
        if new_suite is None:
            result.missing.append(suite_name)
            continue
        old_stencils = old_suite["stencils"]
        new_stencils = new_suite["stencils"]
        for stencil, old_entry in old_stencils.items():
            new_entry = new_stencils.get(stencil)
            if new_entry is None:
                result.missing.append(f"{suite_name}/{stencil}")
                continue
            _compare_entry(
                result,
                suite_name,
                stencil,
                old_entry,
                new_entry,
                max_regression,
                min_time,
            )
        for stencil in new_stencils:
            if stencil not in old_stencils:
                result.added.append(f"{suite_name}/{stencil}")
    for suite_name in new_suites:
        if suite_name not in old_suites:
            result.added.append(suite_name)
    return result


def _compare_entry(
    result: ComparisonResult,
    suite: str,
    stencil: str,
    old_entry: Mapping[str, Any],
    new_entry: Mapping[str, Any],
    max_regression: float,
    min_time: float,
) -> None:
    # Gate on the *minimum* wall time: scheduling noise only ever adds time,
    # so best-of-N is the stable statistic, while a real regression slows
    # every run including the fastest.  Old reports without "min" (the schema
    # only mandates "median") fall back to the median.
    if "min" in old_entry["wall_s"] and "min" in new_entry["wall_s"]:
        metric = "min"
    else:
        metric = "median"
    old_time = float(old_entry["wall_s"][metric])
    new_time = float(new_entry["wall_s"][metric])
    delta = Delta(suite, stencil, f"wall_s.{metric}", old_time, new_time)
    # The boundary is inclusive (exactly threshold-much slower fails), but
    # an unchanged time never regresses, whatever the threshold.
    if (
        old_time >= min_time
        and new_time > old_time
        and new_time >= old_time * (1.0 + max_regression)
    ):
        # Decompose the regression into per-pass contributions when both
        # entries carry per-pass timings, so the failure names the guilty
        # pass instead of just the stencil.
        delta = Delta(
            suite,
            stencil,
            f"wall_s.{metric}",
            old_time,
            new_time,
            attribution=attribute_entries(old_entry, new_entry),
        )
        result.regressions.append(delta)
    elif new_time < old_time * (1.0 - max_regression):
        result.improvements.append(delta)

    old_counters = old_entry.get("counters", {})
    new_counters = new_entry.get("counters", {})
    for name in sorted(set(old_counters) | set(new_counters)):
        old_value = float(old_counters.get(name, 0.0))
        new_value = float(new_counters.get(name, 0.0))
        scale = max(abs(old_value), abs(new_value), 1.0)
        if abs(new_value - old_value) > 1e-9 * scale:
            result.counter_drifts.append(
                Delta(suite, stencil, f"counters.{name}", old_value, new_value)
            )


def parse_threshold(text: str) -> float:
    """Parse ``"25%"`` or ``"0.25"`` into the fraction ``0.25``.

    Only finite, non-negative values are thresholds: ``nan`` and ``inf``
    would pass every score and a negative one would fail an equal score.
    """
    stripped = text.strip()
    try:
        if stripped.endswith("%"):
            value = float(stripped[:-1]) / 100.0
        else:
            value = float(stripped)
    except ValueError:
        value = math.nan  # not a number: refused below with nan itself
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            "expected a non-negative fraction like 0.25 or a percentage like "
            f"25%, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Compare two hexcc bench reports and fail on regressions.",
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("new", help="new BENCH_*.json to check against the baseline")
    parser.add_argument(
        "--max-regression",
        type=parse_threshold,
        default=DEFAULT_MAX_REGRESSION,
        metavar="FRACTION",
        help="allowed wall-time slowdown, e.g. 25%% or 0.25 (default: 25%%)",
    )
    parser.add_argument(
        "--min-time",
        type=float,
        default=DEFAULT_MIN_TIME,
        metavar="SECONDS",
        help="noise floor: baseline wall times (min statistic) below this "
        "never regress (default: %(default)s)",
    )
    parser.add_argument(
        "--strict-counters",
        action="store_true",
        help="also fail when deterministic counters drifted",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        baseline = load_report(args.baseline)
        new = load_report(args.new)
    except (OSError, SchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = compare_reports(
        baseline, new, max_regression=args.max_regression, min_time=args.min_time
    )
    print(result.summary())
    if not result.ok:
        return 1
    if args.strict_counters and result.counter_drifts:
        print("failing because counters drifted (--strict-counters)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Performance measurement subsystem.

The paper this repository reproduces is fundamentally a performance result,
so the reproduction tracks the performance of its *own* machinery: schedule
construction, validation and functional simulation.  This package provides

* :mod:`repro.bench.schema` — the versioned ``BENCH_*.json`` report format
  (per-stencil wall-time medians, analytic counters, environment metadata);
* :mod:`repro.bench.runner` — the harness behind ``hexcc bench``, running
  the compile / validate / simulate stages over the stencil library;
* :mod:`repro.bench.compare` — a comparator that diffs two reports and
  fails past a regression threshold (used by CI against the checked-in
  ``benchmarks/BENCH_baseline.json``), also runnable as
  ``python -m repro.bench.compare``.
"""

from typing import Any

from repro._lazy import resolve

# Re-exported lazily so that ``python -m repro.bench.compare`` does not
# import the submodule twice (once via the package, once as __main__).
_EXPORTS = {
    "ComparisonResult": "repro.bench.compare",
    "compare_reports": "repro.bench.compare",
    "BenchOptions": "repro.bench.runner",
    "run_bench": "repro.bench.runner",
    "SCHEMA_VERSION": "repro.bench.schema",
    "environment_metadata": "repro.bench.schema",
    "load_report": "repro.bench.schema",
    "make_report": "repro.bench.schema",
    "save_report": "repro.bench.schema",
    "validate_report": "repro.bench.schema",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

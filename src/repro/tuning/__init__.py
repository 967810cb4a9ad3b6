"""``repro.tuning`` — the autotuning subsystem.

The paper picks hybrid tile sizes with the closed-form load-to-compute model
of Section 3.7.  This package searches the same legal table and scores
each candidate tile size by the roofline time the analysis pass reports for
it on the modelled GPU at paper scale, so a tuned pick never scores worse
than the §3.7 pick, any machine reproduces it, and its recorded score is
what ``hexcc compile --tuned`` prints:

* :class:`~repro.tuning.space.CandidateSpace` — the legal tile sizes: the
  legal rows of the §3.7 model's table (statement multiplicity, hexagon
  convexity, shared-memory fit);
* three search strategies (``grid`` / ``random`` / ``hillclimb``), looked
  up by name;
* :func:`~repro.tuning.objectives.evaluate_candidate` — scores one
  candidate through an ordinary :class:`repro.api.Session` run; a sweep
  scores all of its candidates on one session, in one process;
* :class:`~repro.tuning.db.TuningDatabase` — a schema-versioned, atomically
  written JSON database of best known tile sizes, keyed by (program content
  digest, device, strategy, objective), which
  ``Session(...).run(tuned=True)`` and ``hexcc compile --tuned`` apply
  transparently.
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    "TuningDatabase": "repro.tuning.db",
    "baseline_db_path": "repro.tuning.db",
    "default_db_path": "repro.tuning.db",
    "resolve_db_path": "repro.tuning.db",
    "TuningTrial": "repro.tuning.objectives",
    "evaluate_candidate": "repro.tuning.objectives",
    "CandidateSpace": "repro.tuning.space",
    "get_search_strategy": "repro.tuning.strategies",
    "list_search_strategies": "repro.tuning.strategies",
    "TuningResult": "repro.tuning.tuner",
    "tune": "repro.tuning.tuner",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

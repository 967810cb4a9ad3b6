"""``repro.tuning`` — the empirical autotuning subsystem.

The paper picks hybrid tile sizes with the closed-form load-to-compute model
of Section 3.7; its strongest comparison points (Patus) win on some stencils
by *measuring* instead of modelling.  This package closes that loop on top
of the staged pipeline:

* :class:`~repro.tuning.space.CandidateSpace` — the legal tile-size /
  launch-config candidates: the legal rows of the §3.7 model's table
  (statement multiplicity, hexagon convexity, shared-memory fit);
* search strategies (``grid`` / ``random`` / ``hillclimb``) behind a
  registry mirroring :mod:`repro.api.strategies`;
* objectives (``model`` / ``simulate`` / ``counters``) scoring candidates
  through :class:`repro.api.Session` runs that share the cached pipeline
  prefix, fanned across processes by :mod:`repro.engine`;
* :class:`~repro.tuning.db.TuningDatabase` — a schema-versioned, atomically
  written JSON database of best known configurations, keyed by (program
  content digest, device, strategy), which ``Session(... ).run(tuned=True)``
  and ``hexcc compile --tuned`` apply transparently.
"""

from repro.tuning.db import (
    TuningDatabase,
    baseline_db_path,
    default_db_path,
    resolve_db_path,
)
from repro.tuning.objectives import (
    EvaluationJob,
    TuningTrial,
    evaluate_candidate,
    list_objectives,
    register_objective,
)
from repro.tuning.space import Candidate, CandidateSpace
from repro.tuning.strategies import (
    SearchStrategy,
    get_search_strategy,
    list_search_strategies,
    register_search_strategy,
)
from repro.tuning.tuner import TuningResult, tune

__all__ = [
    "Candidate",
    "CandidateSpace",
    "EvaluationJob",
    "SearchStrategy",
    "TuningDatabase",
    "TuningResult",
    "TuningTrial",
    "baseline_db_path",
    "default_db_path",
    "evaluate_candidate",
    "get_search_strategy",
    "list_objectives",
    "list_search_strategies",
    "register_objective",
    "register_search_strategy",
    "resolve_db_path",
    "tune",
]

"""The autotuner's search strategies, selected by name.

``hexcc tune --strategy`` and the :func:`repro.tuning.tune` entry point look
one of three strategies up by name:

* ``grid`` — exhaustive enumeration of the candidate space; when the budget
  is smaller than the space, an evenly-strided deterministic subsample;
* ``random`` — seeded sampling without replacement (``random.Random(seed)``,
  so identical seed + budget replays the identical trial sequence);
* ``hillclimb`` — coordinate-descent: start from the model-selected
  tile size (the §3.7 answer), evaluate the axis-aligned neighbours of
  the incumbent, move to the best improvement, repeat until the budget runs
  out or a local optimum is reached.

A strategy receives an ``evaluate`` callback taking a *batch* of candidates
(the candidates of one round that do not depend on each other's scores) and
returning their trials in order.  Every strategy is deterministic for a fixed ``(seed, budget)`` — the
property the tuning database's byte-identical-entry test pins.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

from repro.tiling.hybrid import TileSizes
from repro.tuning.objectives import TuningTrial
from repro.tuning.space import CandidateSpace

#: Signature of the batch-evaluation callback handed to strategies.
Evaluator = Callable[[Sequence[TileSizes]], list[TuningTrial]]


class SearchStrategy(ABC):
    """One way of spending an evaluation budget on a candidate space."""

    name: str = ""

    @abstractmethod
    def search(
        self,
        space: CandidateSpace,
        evaluate: Evaluator,
        budget: int,
        seed: int,
        start: TileSizes | None = None,
    ) -> list[TuningTrial]:
        """Run the search and return every trial, in evaluation order.

        ``start`` is the model-selected tile size, a member of the space
        (``None`` when the caller has none); strategies that exploit a
        starting point (hill climbing) begin there.
        """


class GridSearch(SearchStrategy):
    """Exhaustive sweep; an evenly-strided subsample when over budget."""

    name = "grid"

    def search(self, space, evaluate, budget, seed, start=None):
        candidates = space.enumerate()
        if not candidates or budget <= 0:
            return []
        if len(candidates) > budget:
            # Deterministic coverage of the whole space: every budget-th
            # point of the enumeration (which varies the innermost axes
            # fastest, so the stride samples all axes).
            stride = len(candidates) / budget
            candidates = [candidates[int(i * stride)] for i in range(budget)]
        return evaluate(candidates)


class RandomSearch(SearchStrategy):
    """Seeded uniform sampling of the space, without replacement."""

    name = "random"

    def search(self, space, evaluate, budget, seed, start=None):
        candidates = space.enumerate()
        if not candidates or budget <= 0:
            return []
        rng = random.Random(seed)
        count = min(budget, len(candidates))
        return evaluate(rng.sample(candidates, count))


class HillClimbSearch(SearchStrategy):
    """Coordinate-descent from the model-selected configuration.

    Each round evaluates all unvisited axis-aligned neighbours of the
    incumbent in one batch, then moves to the best strictly
    improving one.  The walk stops at a local optimum or when the budget is
    exhausted.  Ties break on the enumeration order of the space, keeping
    the walk deterministic; ``seed`` selects the starting point only when no
    model-selected start is available.
    """

    name = "hillclimb"

    def search(self, space, evaluate, budget, seed, start=None):
        candidates = space.enumerate()
        if not candidates or budget <= 0:
            return []
        if start is None:
            start = candidates[random.Random(seed).randrange(len(candidates))]
        trials: list[TuningTrial] = []
        visited: set[TileSizes] = set()

        def run_batch(batch: list[TileSizes]) -> list[TuningTrial]:
            remaining = budget - len(trials)
            batch = [c for c in batch if c not in visited][:remaining]
            if not batch:
                return []
            visited.update(batch)
            new = evaluate(batch)
            trials.extend(new)
            return new

        first = run_batch([start])
        if not first:
            return trials
        incumbent = first[0]
        while len(trials) < budget:
            ranked = sorted(
                run_batch(space.neighbours(incumbent.candidate)),
                key=lambda trial: trial.score,
            )
            if not ranked or ranked[0].score >= incumbent.score:
                break  # local optimum (or nothing left to try)
            incumbent = ranked[0]
        return trials


_REGISTRY: dict[str, SearchStrategy] = {
    "grid": GridSearch(),
    "random": RandomSearch(),
    "hillclimb": HillClimbSearch(),
}


def get_search_strategy(name: str) -> SearchStrategy:
    """Look a search strategy up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown search strategy {name!r}; known: {list_search_strategies()}"
        ) from None


def list_search_strategies() -> list[str]:
    """Names of the search strategies, sorted."""
    return sorted(_REGISTRY)


"""The tuning loop: search the candidate space, score, record the winner.

:func:`tune` is the programmatic counterpart of ``hexcc tune``: it derives
the legal candidate space from the program (:mod:`repro.tuning.space`),
spends an evaluation budget with a named search strategy
(:mod:`repro.tuning.strategies`), scores each candidate tile size by the
analysis pass's roofline time (:mod:`repro.tuning.objectives`) on one
in-memory :class:`~repro.api.Session` in this process, and returns a
:class:`TuningResult` that can be recorded into the persistent
:class:`repro.tuning.db.TuningDatabase`.

The model-selected configuration (the paper's §3.7 answer) is always
evaluated *in addition to* the strategy's budget, so the search result can
never be worse than the model: ``best`` is the cheapest of all trials
including that baseline.

Sweeps are **incremental**: every evaluated trial is stored in the shared
:class:`~repro.cache.DiskCache` under a tuning-owned stage key
(content-hashed over the program, the device, the configuration, the
candidate and the compiler code fingerprint, so a code change re-scores
everything).  That entry is the only per-candidate disk record: the scoring
session has no disk cache.  Re-running a sweep — same seed or a different
strategy visiting overlapping candidates — only scores candidates never
seen before; a fully warm re-run reduces to cache lookups.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from typing import Any

from repro import obs
from repro._record import dataclass, field
from repro.api.config import OptimizationConfig
from repro.api.session import Session, program_digest
from repro.cache import DiskCache
from repro.cache.keys import stage_key
from repro.gpu.device import GPUDevice, GTX470
from repro.model.program import StencilProgram
from repro.tiling.hybrid import TileSizes
from repro.tuning.db import OBJECTIVE, TuningDatabase
from repro.tuning.objectives import TuningTrial, evaluate_candidate
from repro.tuning.space import CandidateSpace
from repro.tuning.strategies import get_search_strategy


@dataclass
class TuningResult:
    """Everything one tuning sweep produced."""

    program_name: str
    sizes: tuple[int, ...]
    steps: int
    digest: str
    device: str
    strategy: str
    seed: int
    budget: int
    trials: list[TuningTrial]
    baseline: TuningTrial
    best: TuningTrial
    space_size: int
    rejections: Mapping[str, int] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def improvement(self) -> float:
        """Baseline-over-best score ratio (> 1 means the search won)."""
        if self.best.score <= 0:
            return 1.0
        return self.baseline.score / self.best.score

    def to_entry(self) -> dict[str, Any]:
        """The tuning-database entry of this sweep.

        Deliberately free of timestamps, wall times and environment data:
        the score is deterministic, so an identical ``(seed, budget)`` sweep
        reproduces this entry byte for byte.
        """
        return {
            "program": self.program_name,
            "sizes": list(self.sizes),
            "steps": self.steps,
            "digest": self.digest,
            "device": self.device,
            "strategy": self.strategy,
            "objective": OBJECTIVE,
            "seed": self.seed,
            "budget": self.budget,
            "evaluations": len(self.trials) + 1,  # + the model baseline
            "failures": sum(1 for trial in self.trials if not trial.ok),
            "space_size": self.space_size,
            "best": _candidate_entry(self.best),
            "baseline": _candidate_entry(self.baseline),
        }

    def describe(self) -> str:
        lines = [
            f"tuned {self.program_name} on {self.device} "
            f"(strategy={self.strategy}, seed={self.seed}, budget={self.budget})",
            f"  space      : {self.space_size} candidates "
            f"({_format_rejections(self.rejections)})",
            f"  evaluated  : {len(self.trials) + 1} "
            f"({sum(1 for t in self.trials if not t.ok)} failed) "
            f"in {self.wall_s:.2f}s",
            f"  model      : {self.baseline.describe()}",
            f"  best       : {self.best.describe()}",
            f"  improvement: {self.improvement:.3f}x over the model selection",
        ]
        return "\n".join(lines)


def _candidate_entry(trial: TuningTrial) -> dict[str, Any]:
    return {
        "height": trial.candidate.height,
        "widths": list(trial.candidate.widths),
        "score": trial.score,
    }


def _format_rejections(rejections: Mapping[str, int]) -> str:
    pruned = {k: v for k, v in rejections.items() if k != "evaluated" and v}
    if not pruned:
        return "nothing pruned"
    return "pruned: " + ", ".join(f"{k}={v}" for k, v in sorted(pruned.items()))


def _trial_key(digest: str, device: GPUDevice, config, candidate: TileSizes) -> str:
    """Disk-cache key of one evaluated trial (chained like a pipeline stage)."""
    return stage_key(
        "tuning-trial",
        [
            f"program={digest}",
            f"device={device.name}",
            f"config={config!r}",
            f"candidate={candidate!r}",
        ],
    )


def tune(
    program: StencilProgram,
    *,
    strategy: str = "random",
    budget: int = 32,
    seed: int = 0,
    device: GPUDevice = GTX470,
    config: OptimizationConfig | None = None,
    disk_cache: DiskCache | None = None,
    db: TuningDatabase | None = None,
) -> TuningResult:
    """Autotune one stencil program; optionally record into ``db``.

    Parameters mirror ``hexcc tune``.  ``disk_cache`` holds the pipeline
    prefix (``canonicalize`` and the model's tiling) and one
    ``tuning-trial`` entry per scored candidate: previously evaluated trials
    are replayed from it instead of re-scored, making warm sweep re-runs
    nearly free.

    A sweep that dies writes a crash report (see :mod:`repro.obs.log`)
    before the exception propagates.
    """
    try:
        return _tune_impl(
            program,
            strategy=strategy,
            budget=budget,
            seed=seed,
            device=device,
            config=config,
            disk_cache=disk_cache,
            db=db,
        )
    except (ValueError, KeyboardInterrupt):
        # Bad arguments / user interrupt: expected, not a pipeline fault.
        raise
    except Exception as error:
        obs.log.attach_crash_report(
            error,
            obs.write_crash_report(
                error,
                context={
                    "operation": "tune",
                    "program": program.name,
                    "strategy": strategy,
                    "budget": budget,
                    "seed": seed,
                },
            ),
        )
        raise


def _tune_impl(
    program: StencilProgram,
    *,
    strategy: str,
    budget: int,
    seed: int,
    device: GPUDevice,
    config: OptimizationConfig | None,
    disk_cache: DiskCache | None,
    db: TuningDatabase | None,
) -> TuningResult:
    search = get_search_strategy(strategy)
    config = config or OptimizationConfig.default()
    started = time.perf_counter()

    # The pipeline prefix, disk-cached: the space and the model plan read it.
    session = Session(device=device, strategy="hybrid", disk_cache=disk_cache)
    prefix = session.run(program, config=config, stop_after="canonicalize")
    canonical = prefix.artifact("canonicalize").canonical
    digest = program_digest(prefix.artifact("parse").program)

    space = CandidateSpace(
        canonical,
        device,
        inter_tile_reuse=config.inter_tile_reuse != "none",
    )

    # Candidates are scored in memory: their pass artifacts are not worth a
    # disk write, because the trial entry already makes a re-run free.
    scorer = Session(device=device, strategy="hybrid")

    def evaluate(batch: Sequence[TileSizes]) -> list[TuningTrial]:
        """Replay cached trials; score (and record) only unseen candidates."""
        trials: list[TuningTrial] = []
        for candidate in batch:
            key = _trial_key(digest, device, config, candidate)
            if disk_cache is not None:
                cached = disk_cache.get(key, stage="tuning-trial")
                if isinstance(cached, TuningTrial):
                    trials.append(cached)
                    continue
            trial = evaluate_candidate(scorer, program, candidate, config)
            if disk_cache is not None:
                disk_cache.put(key, trial, stage="tuning-trial")
            trials.append(trial)
        return trials

    # The §3.7 model selection — a member of the space, since the model picks
    # from the same table: always evaluated, and handed to strategies that
    # exploit a starting point.
    model_plan = session.run(program, config=config, stop_after="tiling")
    start = model_plan.artifact("tiling").sizes
    baseline = evaluate([start])[0]

    with obs.span(
        "tune.search",
        program=program.name,
        strategy=strategy,
        budget=budget,
    ):
        trials = search.search(space, evaluate, budget, seed, start=start)
    succeeded = [trial for trial in trials if trial.ok]
    best = min(
        succeeded + [baseline],
        key=lambda trial: (trial.score, str(trial.candidate)),
    )

    result = TuningResult(
        program_name=program.name,
        sizes=tuple(program.sizes),
        steps=program.time_steps,
        digest=digest,
        device=device.name,
        strategy=strategy,
        seed=seed,
        budget=budget,
        trials=trials,
        baseline=baseline,
        best=best,
        space_size=len(space),
        rejections=space.rejections,
        wall_s=time.perf_counter() - started,
    )
    if db is not None:
        db.record(result.to_entry())
    return result

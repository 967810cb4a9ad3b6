#!/usr/bin/env python3
"""Autotuning: beat (or confirm) the §3.7 model with a search.

The paper selects tile sizes with the closed-form load-to-compute model;
its auto-tuning competitors (Patus) sometimes win by measuring instead.
``repro.tuning`` searches on the modelled GPU instead:

* take the legal candidate space from the model's own tile-size table,
* spend a search budget (grid / random / hill-climbing) scoring each tile
  size by the roofline time the analysis pass reports for it,
* record the winner in a persistent database that
  ``Session.run(tuned=True)`` / ``hexcc compile --tuned`` apply
  transparently.

Run with:  python examples/autotune.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Session
from repro.cache import DiskCache
from repro.stencils import get_stencil
from repro.tuning import CandidateSpace, TuningDatabase, tune
from repro.model.preprocess import canonicalize


def show_space() -> None:
    print("=== the candidate space (the legal rows of the §3.7 model's table) ===")
    canonical = canonicalize(get_stencil("heat_3d"))
    space = CandidateSpace(canonical)
    rejections = dict(space.rejections)
    print(f"heat_3d: {len(space)} legal candidates; pruned: "
          f"shared-memory={rejections['shared_memory_overflow']}, "
          f"legality={rejections['legality']}\n")


def search_and_apply(workdir: Path) -> None:
    print("=== random search vs the model selection (modelled GPU time) ===")
    program = get_stencil("jacobi_2d")
    cache = DiskCache(workdir / "cache")
    db = TuningDatabase()
    result = tune(
        program,
        strategy="random",
        budget=24,
        seed=0,
        disk_cache=cache,
        db=db,
    )
    print(result.describe())

    db_path = db.save(workdir / "tuning.json")
    print(f"\nrecorded in {db_path.name}; compiling with tuned=True applies it:")
    session = Session(tuning_db=TuningDatabase.load(db_path))
    run = session.run(program, stop_after="tiling", tuned=True)
    plan = run.artifact("tiling")
    print(f"  tiling stage used h={plan.sizes.height}, "
          f"widths={plan.sizes.widths} "
          f"(from the database: {run.tuned_entry is not None})")

    print("\nre-running the identical sweep replays cached trials:")
    again = tune(
        program,
        strategy="random",
        budget=24,
        seed=0,
        disk_cache=cache,
    )
    print(f"  warm sweep wall time: {again.wall_s * 1e3:.0f} ms "
          f"(cold was {result.wall_s * 1e3:.0f} ms)")


def main() -> None:
    show_space()
    with TemporaryDirectory() as workdir:
        search_and_apply(Path(workdir))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Drive the staged pipeline API: prefixes, tile sizes, strategies, timings.

The staged pipeline step by step, using only :mod:`repro.api`:

1. run a pipeline *prefix* (``stop_after="tiling"``) and inspect the typed
   :class:`TilingPlan` artifact;
2. run the pipeline again with *taller* hexagons (a different tile height
   through ``tile_sizes``) and compare the generated CUDA;
3. select tiling strategies by name, one ``Session`` per strategy — the
   paper's ``hybrid`` scheme versus the ``diamond`` comparison strategy of
   Section 5;
4. read the per-pass instrumentation events (wall time, cache provenance,
   artifact counters) that every run records.

Run with:  python examples/custom_pipeline.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Session, TileSizes, get_stencil


def main() -> None:
    session = Session()  # GTX 470, hybrid strategy, no disk cache
    program = get_stencil("jacobi_2d", sizes=(24, 24), steps=12)

    # 1. Stop after the tiling stage and look at the typed artifact.
    print("=== pipeline prefix: stop_after='tiling' ===")
    prefix = session.run(program, tile_sizes=TileSizes.of(2, 3, 8),
                         stop_after="tiling")
    plan = prefix.artifact("tiling")
    print(f"stages run: {', '.join(prefix.stages_run)}")
    for name, value in plan.summary().items():
        print(f"  {name:<24} {value}")
    print()

    # 2. Taller hexagons: the tile height is a run input like any other.
    print("=== taller hexagons: the same pipeline at h=3 ===")
    taller = session.run(program, tile_sizes=TileSizes.of(3, 3, 8))
    baseline = session.run(program, tile_sizes=TileSizes.of(2, 3, 8))
    sources = {event.name: event.source for event in taller.events}
    print(f"baseline tiles {baseline.artifact('tiling').sizes}, "
          f"taller tiles {taller.artifact('tiling').sizes} "
          f"(canonicalize served from {sources['canonicalize']})")
    same = taller.artifact("codegen").cuda_source == \
        baseline.artifact("codegen").cuda_source
    print(f"generated CUDA identical: {same} (expected: False — the tiling "
          "changed)")
    taller.simulate_and_check()
    print("taller-tile pipeline simulates correctly")
    print()

    # 3. A session runs one strategy, selected by name.
    print("=== strategies: hybrid vs diamond peak width ===")
    for strategy in ("hybrid", "diamond"):
        run = Session(strategy=strategy).run(
            program, tile_sizes=TileSizes.of(2, 3, 8), stop_after="tiling"
        )
        details = run.artifact("tiling").details or {}
        print(f"  {strategy:<9} peak width {details.get('peak_width')}"
              f"  concurrent start: {details.get('concurrent_start')}")
    print()

    # 4. Per-pass instrumentation of a full run.
    print("=== per-pass instrumentation events ===")
    full = session.run(program, tile_sizes=TileSizes.of(2, 3, 8),
                       stop_after="analysis")
    for event in full.events:
        print(f"  {event.describe()}")
    report = full.artifact("analysis").report
    print(f"predicted: {report.gstencils_per_second:.2f} GStencils/s "
          f"({report.bound_by}-bound)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Tile-size selection and the shared-memory optimisation ladder for heat 3D.

Reproduces, at example scale, the two analyses of Section 6.2:

* the load-to-compute model of Section 3.7 sweeping tile sizes under the
  48 KB shared-memory budget, and
* the optimisation ladder (a)-(f) of Table 4 showing how shared memory,
  interleaved copy-out, aligned loads and inter-tile reuse build on each
  other.

Run with:  python examples/heat3d_tuning.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Session, table4_configurations
from repro.gpu.device import GTX470, NVS5200M
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.hybrid import TileSizes
from repro.tiling.tile_size import TileSizeModel, select_tile_sizes


def tile_size_sweep() -> None:
    print("=== Section 3.7: load-to-compute driven tile-size selection ===")
    canonical = canonicalize(get_stencil("heat_3d"))
    model = TileSizeModel(canonical)
    print(f"{'h':>3} {'w0':>3} {'w1':>3} {'w2':>4} {'iters/tile':>11} "
          f"{'loads/tile':>11} {'ratio':>7} {'shared KB':>10}")
    for h in (1, 2, 3):
        for w0 in (3, 7):
            for w1 in (5, 10):
                sizes = TileSizes.of(h, w0, w1, 32)
                estimate = model.estimate(sizes)
                marker = " *" if estimate.shared_memory_bytes > 48 * 1024 else ""
                print(
                    f"{h:>3} {w0:>3} {w1:>3} {32:>4} {estimate.iterations:>11} "
                    f"{estimate.loads:>11} {estimate.load_to_compute:>7.3f} "
                    f"{estimate.shared_memory_bytes / 1024:>10.1f}{marker}"
                )
    best = select_tile_sizes(canonical, GTX470)
    print(f"\nselected: {best.sizes} with load-to-compute ratio "
          f"{best.load_to_compute:.3f} ({best.shared_memory_bytes / 1024:.1f} KB shared)")
    print("(* = exceeds the 48 KB shared-memory budget and is rejected)\n")


def optimisation_ladder() -> None:
    print("=== Section 6.2 / Table 4: the optimisation ladder on heat 3D ===")
    program = get_stencil("heat_3d")
    sizes = TileSizes.of(2, 7, 10, 32)
    for device in (NVS5200M, GTX470):
        session = Session(device)
        print(f"\n{device}")
        for label, config in table4_configurations().items():
            run = session.run(
                program, tile_sizes=sizes, config=config, stop_after="analysis"
            )
            analysis = run.artifact("analysis")
            report, counters = analysis.report, analysis.estimate.counters
            print(
                f"  ({label}) {report.gflops:7.1f} GFLOPS  "
                f"{report.gstencils_per_second:5.2f} GStencils/s  "
                f"bound by {report.bound_by:<14} "
                f"gld_eff {100 * counters.gld_efficiency:5.1f}%"
            )


def main() -> None:
    tile_size_sweep()
    optimisation_ladder()


if __name__ == "__main__":
    main()

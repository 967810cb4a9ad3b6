#!/usr/bin/env python3
"""Quickstart: compile the Figure 1 Jacobi 2D stencil with hybrid tiling.

The example walks the whole pipeline on a small problem instance:

1. get the stencil program (the paper's Figure 1 kernel),
2. compile it with hybrid hexagonal/classical tiling,
3. validate the schedule exhaustively (coverage, legality, uniform tiles),
4. run the functional GPU simulator and compare with the NumPy reference,
5. print the generated CUDA code's core-loop PTX summary (Figure 2) and the
   predicted performance on the two GPUs of the paper.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Session
from repro.codegen.analysis import AnalyticProfiler
from repro.codegen.ptx import emit_core_ptx
from repro.gpu.device import GTX470, NVS5200M
from repro.stencils import get_stencil
from repro.tiling.hybrid import TileSizes
from repro.tiling.validate import validate_hybrid_tiling


def main() -> None:
    # A small instance so the exhaustive validation and the functional
    # simulation finish in a few seconds; the tiling code is identical for the
    # full 3072^2 x 512 problem of the paper.
    program = get_stencil("jacobi_2d", sizes=(24, 24), steps=12)
    print("input program (Figure 1):")
    print(program.c_source())

    session = Session()  # GTX 470, hybrid strategy, no disk cache
    run = session.run(program, tile_sizes=TileSizes.of(3, 3, 8))
    tiling = run.artifact("tiling").tiling
    print(tiling.describe())
    print(run.artifact("memory").plan.describe())
    print()

    report = validate_hybrid_tiling(tiling)
    print(f"schedule validation: {report}")

    simulation = run.simulate_and_check()
    print(
        f"functional simulation matches the reference "
        f"({simulation.tiles_executed} tiles, {simulation.full_tiles} full)"
    )
    print()

    ptx = emit_core_ptx(program)
    print("core-loop pseudo-PTX (compare with Figure 2):")
    print(ptx.text)
    print(f"-> {ptx.shared_loads} shared loads, {ptx.shared_stores} store, "
          f"{ptx.arithmetic} arithmetic ops, {ptx.registers_reused} values reused\n")

    # Performance prediction at the paper's problem size.
    # One tiling, profiled and estimated on each of the paper's two GPUs.
    full = session.run(get_stencil("jacobi_2d"), tile_sizes=TileSizes.of(3, 4, 64))
    for device in (GTX470, NVS5200M):
        estimate = AnalyticProfiler(
            full.artifact("tiling").tiling,
            full.artifact("memory").plan,
            full.request.config,
            device,
        ).estimate(full.artifact("codegen").core_profiles)
        print(estimate.performance(device).summary())

    print("\nfirst lines of the generated CUDA code:")
    print("\n".join(run.artifact("codegen").cuda_source.splitlines()[:30]))


if __name__ == "__main__":
    main()

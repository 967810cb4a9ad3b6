"""A seeded sweep of generated stencils through tiling, verification and simulation.

Each seed draws 200 small 1-D and 2-D Jacobi-style programs as C source: a
radius ``r`` of 1-3 with loops ``i = r .. N - r``, 1-4 reads ``A[t-k]`` with
``k`` in 1-3 and offsets in ``[-r, r]``, 1-6 time steps and extents just
above ``2r``.  Half of them get explicit tile sizes.  Every program must
tile legally (the exhaustive validator), verify race-free (the symbolic
verifier) and simulate to the NumPy reference values.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Session, StrategyError, TileSizes
from repro.frontend import parse_stencil
from repro.tiling.validate import validate_hybrid_tiling
from repro.verify.symbolic import verify_tiling_plan

PROGRAMS_PER_SEED = 200


def _generate(rng: random.Random) -> tuple[str, TileSizes | None]:
    """One random program's C source and, half the time, its tile sizes."""
    dims = rng.randint(1, 2)
    radius = rng.randint(1, 3)
    loop_vars = "ij"[:dims]
    reads = [
        (rng.randint(1, 3), [rng.randint(-radius, radius) for _ in range(dims)])
        for _ in range(rng.randint(1, 4))
    ]
    depth = max(k for k, _ in reads) + 1
    lines = [f"#define T {rng.randint(1, 6)}"]
    lines += [
        f"#define N{d} {rng.randint(2 * radius + 1, 2 * radius + 8)}"
        for d in range(dims)
    ]
    extents = "".join(f"[N{d}]" for d in range(dims))
    lines += [f"float A[{depth}]{extents};", "for (t = 0; t < T; t++) {"]
    for d, var in enumerate(loop_vars):
        lines.append(f"for ({var} = {radius}; {var} < N{d} - {radius}; {var}++)")

    def subscript(var: str, offset: int) -> str:
        return f"[{var}{offset:+d}]" if offset else f"[{var}]"

    terms = " + ".join(
        f"A[t-{k}]" + "".join(subscript(v, o) for v, o in zip(loop_vars, offsets))
        for k, offsets in reads
    )
    target = "".join(f"[{var}]" for var in loop_vars)
    lines += [f"A[t]{target} = {1.0 / len(reads):.2f}f * ({terms});", "}"]
    sizes = None
    if rng.random() < 0.5:
        widths = tuple(rng.randint(1, 6) for _ in range(dims))
        sizes = TileSizes(rng.randint(0, 4), widths)
    return "\n".join(lines) + "\n", sizes


@pytest.mark.parametrize("seed", range(4))
def test_generated_stencils_tile_verify_and_simulate(seed):
    rng = random.Random(seed)
    checked = 0
    for _ in range(PROGRAMS_PER_SEED):
        source, sizes = _generate(rng)
        program = parse_stencil(source)
        try:
            run = Session().run(program, tile_sizes=sizes, stop_after="memory")
        except StrategyError:
            continue  # explicit sizes this stencil's cone cannot tile
        tiling = run.artifact("tiling")
        assert validate_hybrid_tiling(tiling.tiling).ok, source
        verdict = verify_tiling_plan(run.artifact("canonicalize").canonical, tiling)
        assert verdict.ok, (source, verdict.summary())
        run.simulate_and_check()
        checked += 1
    assert checked > PROGRAMS_PER_SEED // 2

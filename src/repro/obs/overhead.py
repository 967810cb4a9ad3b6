"""The disabled-telemetry overhead gate (``python -m repro.obs.overhead``).

The telemetry hooks are always compiled in: every pipeline pass, cache
access and tuning trial opens a span on the ambient recorder, which
defaults to the shared no-op one.  This gate bounds what that costs when
**disabled**:

1. measure the median wall time of a full cold compile with telemetry
   disabled (fresh session, no disk cache — the same configuration the CI
   bench gate measures);
2. count how many spans one such compile actually opens (one traced run);
3. measure the per-span cost of the disabled path (one null span,
   amortised over many iterations);
4. assert ``spans_per_compile × cost_per_span < limit × compile_wall``.

Exit codes: 0 within the bound, 1 exceeded, 2 usage error.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro import obs

DEFAULT_LIMIT = 0.02  # 2% of compile wall time
DEFAULT_REPEATS = 5
DEFAULT_SAMPLES = 20_000


def _compile_once(stencil: str) -> None:
    from repro.api import Session, get_stencil

    Session().run(get_stencil(stencil))


def measure_overhead(
    stencil: str = "jacobi_2d",
    repeats: int = DEFAULT_REPEATS,
    samples: int = DEFAULT_SAMPLES,
) -> dict[str, float]:
    """Measure the three quantities the bound is built from."""
    # 1. Disabled-telemetry compile wall time (median of fresh sessions).
    _compile_once(stencil)  # warm process-wide caches
    walls: list[float] = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        _compile_once(stencil)
        walls.append(time.perf_counter() - start)
    compile_wall_s = statistics.median(walls)

    # 2. Spans one compile opens (trace an identical run).
    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        _compile_once(stencil)
    spans_per_compile = len(recorder.drain())

    # 3. Disabled per-span cost: one null span, the shape of every
    # instrumentation site.
    iterations = max(1, samples)
    start = time.perf_counter()
    for _ in range(iterations):
        with obs.span("overhead.probe"):
            pass
    span_cost_s = (time.perf_counter() - start) / iterations

    return {
        "compile_wall_s": compile_wall_s,
        "spans_per_compile": float(spans_per_compile),
        "span_cost_s": span_cost_s,
        "overhead_fraction": spans_per_compile * span_cost_s / compile_wall_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.overhead",
        description="Bound the cost of disabled telemetry against compile time.",
    )
    parser.add_argument("--stencil", default="jacobi_2d")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument(
        "--limit", type=float, default=DEFAULT_LIMIT, metavar="FRACTION",
        help="maximum allowed overhead fraction (default: 0.02 = 2%%)",
    )
    args = parser.parse_args(argv)
    if args.limit <= 0:
        print("error: --limit must be positive", file=sys.stderr)
        return 2
    measured = measure_overhead(
        stencil=args.stencil, repeats=args.repeats, samples=args.samples
    )
    print(
        f"compile wall (disabled) : {measured['compile_wall_s'] * 1e3:.3f} ms\n"
        f"spans per compile       : {measured['spans_per_compile']:.0f}\n"
        f"disabled span cost      : {measured['span_cost_s'] * 1e9:.0f} ns\n"
        f"overhead fraction       : {measured['overhead_fraction']:.4%} "
        f"(limit {args.limit:.2%})"
    )
    if measured["overhead_fraction"] >= args.limit:
        print("FAIL: disabled-telemetry overhead exceeds the bound", file=sys.stderr)
        return 1
    print("OK: disabled-telemetry overhead is within the bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end benchmark of the ``hexcc`` command line, measured from outside.

Every request is a fresh ``python -m repro.cli ARGS`` process run from the
checkout's ``src/``; it is timed from spawn to reap, its peak RSS is read
from ``os.wait4``, and its output is checked against ``golden.json``.  The
load is a closed loop with one client: the next request starts when the
previous one has exited, like a developer or a build script waiting on
each command.  See README.md for the workloads, metrics and bounds.

Measure (the last stdout line is one JSON result)::

    python benchmarks/e2e/run.py --workload warm-compile --seed 0 \\
        --seconds 25 --trace 0 [--out result.json]

Compare the ``--out`` files of two commits::

    python benchmarks/e2e/run.py compare A1.json A2.json -- B1.json B2.json
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from traced import COUNT_NAMES, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
GOLDEN = HERE / "golden.json"
TRACED = HERE / "traced.py"

ALL_STENCILS = (
    "fdtd_2d", "gradient_2d", "gradient_3d", "heat_2d", "heat_3d",
    "higher_order_time", "jacobi_1d", "jacobi_2d", "laplacian_2d",
    "laplacian_3d", "wide_1d",
)
STENCILS_2D = ("jacobi_2d", "laplacian_2d", "heat_2d", "gradient_2d", "fdtd_2d")
STENCILS_3D = ("heat_3d", "laplacian_3d", "gradient_3d")
DEVICES = ("gtx470", "nvs5200m")
VALIDATE_SIZES = ((12, 8), (16, 6), (16, 8))
# The cost of a mutant verify request varies almost 3x with the (stencil,
# mutation) pair, so a seeded draw would move the medians between seeds by
# more than their bounds.  Two fixed pairs keep the request mix identical:
# a barrier-level race and a hexagon-geometry (coverage) race.
MUTANTS = (("heat_2d", "dropped-barrier"), ("jacobi_2d", "grown-hexagon"))

#: Set-up is repeated (each time from scratch) up to this many times, while
#: the set-ups so far took less than SETUP_BUDGET_S; setup_s is the median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0
#: A request's wall time is divided by the median of the REFERENCE runs
#: nearest to it: its own and those of up to this many requests on either
#: side.  One reference run is about as noisy as the request; five are not,
#: and they are still close enough in time to see the same machine speed.
REFERENCE_WINDOW = 2
#: The REFERENCE process's wall time on a quiet 2.0 GHz Xeon VM: the scale
#: that turns set-up time in reference units back into seconds (setup_s).
REFERENCE_NOMINAL_S = 0.15
#: A request still running after this long is killed and counted as failed.
REQUEST_TIMEOUT_S = 60.0
#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

CUDA_MARKER = "/* Generated by"
TILE_SIZES = re.compile(r"^\s*tile sizes\s*:\s*(.+)$", re.MULTILINE)
MATCHES_REFERENCE = "functional simulation matches the NumPy reference"


@dataclass(frozen=True)
class Request:
    """One CLI invocation; ``key`` names its known answer in golden.json."""

    kind: str
    argv: tuple[str, ...]
    key: str


def compile_request(stencil: str, device: str) -> Request:
    return Request(
        "compile",
        ("compile", stencil, "--device", device, "--show-cuda"),
        f"compile/{stencil}/{device}",
    )


def verify_request(stencil: str) -> Request:
    return Request(
        "verify", ("verify", stencil, "--strategy", "all", "--json"), f"verify/{stencil}"
    )


def mutant_request(stencil: str, mutation: str) -> Request:
    return Request(
        "mutant",
        ("verify", stencil, "--mutate", mutation, "--json"),
        f"mutant/{stencil}/{mutation}",
    )


def validate_request(stencil: str, size: int, steps: int) -> Request:
    return Request(
        "validate",
        ("validate", stencil, "--size", str(size), "--steps", str(steps)),
        f"validate/{stencil}/{size}x{steps}",
    )


LIST_REQUEST = Request("list", ("list",), "list")

#: A fixed interpreter start, NumPy import and pure-Python loop that no
#: change to hexcc can affect.  It runs right before every untraced request
#: and measures how fast the machine is at that moment: on a shared 2-core
#: VM that speed drifts by 15-30% over minutes, and dividing by it (the
#: ``*_rel`` metrics) cancels the drift while any change to hexcc shows in
#: full.
REFERENCE = Request(
    "reference",
    ("-c", "import numpy\nx = 0\nfor i in range(400000):\n    x += i * i % 7\n"),
    "reference",
)


@dataclass(frozen=True)
class Workload:
    """A balanced round of requests, repeated until the run's time is up.

    ``warm`` workloads share one cache filled during set-up; the others give
    every request a fresh, empty cache directory.
    """

    name: str
    round: tuple[Request, ...]
    warm: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "cold-compile-3d",
            tuple(compile_request(s, d) for s in STENCILS_3D for d in DEVICES),
        ),
        Workload(
            "cold-verify-2d",
            tuple(verify_request(s) for s in STENCILS_2D)
            + tuple(mutant_request(s, m) for s, m in MUTANTS),
        ),
        Workload(
            "warm-compile",
            tuple(compile_request(s, d) for s in ALL_STENCILS for d in DEVICES),
            warm=True,
        ),
        Workload(
            "validate-2d",
            tuple(
                validate_request(s, n, t) for s in STENCILS_2D for n, t in VALIDATE_SIZES
            ),
        ),
    )
}


def rounds(workload: Workload, seed: int) -> Iterator[list[Request]]:
    """The workload's rounds, each a seeded shuffle of the same multiset."""
    rng = random.Random(f"{workload.name}/{seed}")
    while True:
        order = list(workload.round)
        rng.shuffle(order)
        yield order


# -- known answers ------------------------------------------------------------


def known_answer(request: Request, stdout: str) -> Any:
    """The part of a response golden.json pins (compile, validate and list)."""
    if request.kind == "compile":
        start = stdout.find(CUDA_MARKER)
        sizes = TILE_SIZES.search(stdout)
        return {
            "cuda_sha256": hashlib.sha256(stdout[start:].encode()).hexdigest()
            if start >= 0
            else None,
            "tile_sizes": sizes.group(1) if sizes else None,
        }
    if request.kind == "validate":
        lines = stdout.splitlines()
        return {
            "report": next((line for line in lines if line.startswith("ValidationReport(")), None),
            "matches_reference": MATCHES_REFERENCE in lines,
        }
    if request.kind == "list":
        return stdout.split()
    raise ValueError(f"no known answer is recorded for {request.kind} requests")


def _verdict_error(request: Request, stdout: str) -> str | None:
    """Clean verifies must report no race and no lint error; mutants a race."""
    try:
        report = json.loads(stdout)
        rows = report["results"]
        races = [len(row["schedule"]["races"]) for row in rows]
        lint_errors = [row["lint"]["errors"] for row in rows if row["lint"] is not None]
    except (ValueError, KeyError, TypeError) as error:
        return f"unreadable verify JSON ({type(error).__name__}: {error})"
    if not rows:
        return "verify reported no results"
    if request.kind == "mutant":
        return None if all(races) else "mutant not caught: no race reported"
    if report["ok"] is not True or any(races) or any(lint_errors):
        return f"clean schedule rejected: races={races} lint_errors={lint_errors}"
    return None


def check(request: Request, exit_code: int, stdout: str, golden: dict) -> str | None:
    """Why a response is wrong, or ``None`` when it matches its known answer."""
    expected_exit = 1 if request.kind == "mutant" else 0
    if exit_code != expected_exit:
        return f"exit code {exit_code}, expected {expected_exit}"
    if request.kind == "reference":
        return None
    if request.kind in ("verify", "mutant"):
        return _verdict_error(request, stdout)
    if known_answer(request, stdout) != golden.get(request.key):
        return f"output differs from golden.json[{request.key!r}]"
    return None


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


# -- running requests ---------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """One measured request."""

    request: Request
    wall_s: float
    rss_kb: int
    exit_code: int
    traced: bool
    error: str | None
    trace: dict | None = field(default=None, repr=False)
    #: Wall time of the REFERENCE run just before this request (untraced runs).
    reference_s: float | None = None


def child_env() -> dict[str, str]:
    """The caller's environment without HEXCC_* and PYTHON* settings."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("HEXCC_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Spawns requests one at a time inside one scratch directory."""

    def __init__(self, workdir: Path, golden: dict) -> None:
        self.workdir = workdir
        self.golden = golden
        self.env = child_env()
        self.stdout_path = workdir / "stdout"
        self.stderr_path = workdir / "stderr"
        self.spans_path = workdir / "spans.json"

    def spawn(self, request: Request, cache: Path, traced: bool = False) -> tuple[float, int, int, str]:
        """Run one request against ``cache``: (wall s, exit code, peak RSS kB, stdout)."""
        if request.kind == "reference":
            argv = [sys.executable, *request.argv]
        elif traced:
            argv = [sys.executable, str(TRACED), str(self.spans_path), "--", *request.argv]
        else:
            argv = [sys.executable, "-m", "repro.cli", *request.argv]
        env = dict(self.env, HEXCC_CACHE_DIR=str(cache))
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(REQUEST_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                timer.cancel()
            wall_s = time.perf_counter() - start
        timer.join()
        child.returncode = exit_code = os.waitstatus_to_exitcode(status)
        stdout = self.stdout_path.read_text(encoding="utf-8", errors="replace")
        return wall_s, exit_code, usage.ru_maxrss, stdout

    def run(
        self,
        request: Request,
        cache: Path,
        traced: bool = False,
        reference_s: float | None = None,
    ) -> Sample:
        """Spawn one request and check its answer."""
        wall_s, exit_code, rss_kb, stdout = self.spawn(request, cache, traced)
        if wall_s >= REQUEST_TIMEOUT_S:
            error: str | None = f"timed out after {REQUEST_TIMEOUT_S:.0f} s"
        else:
            error = check(request, exit_code, stdout, self.golden)
        if error is not None:
            stderr = self.stderr_path.read_text(encoding="utf-8", errors="replace")
            error += f"; stderr tail: {stderr[-300:]!r}"
        trace = None
        if traced and self.spans_path.exists():
            trace = json.loads(self.spans_path.read_text(encoding="utf-8"))
            self.spans_path.unlink()
        return Sample(request, wall_s, rss_kb, exit_code, traced, error, trace, reference_s)

    def reference(self, cache: Path) -> float:
        """Wall seconds of one REFERENCE process."""
        sample = self.run(REFERENCE, cache)
        if sample.error is not None:
            raise RuntimeError(f"the reference process failed: {sample.error}")
        return sample.wall_s


def set_up(workload: Workload, runner: Runner, cache: Path) -> tuple[float, float]:
    """Page in the interpreter and bytecode; fill ``cache`` for warm workloads.

    Returns the set-up's wall seconds and its reference units: the sum over
    its steps of each step's wall time over the REFERENCE run just before it.
    """
    shutil.rmtree(cache, ignore_errors=True)
    wall_s = units = 0.0
    for request in (LIST_REQUEST,) + (workload.round if workload.warm else ()):
        reference_s = runner.reference(cache)
        sample = runner.run(request, cache)
        if sample.error is not None:
            raise RuntimeError(f"set-up request {' '.join(request.argv)} failed: {sample.error}")
        wall_s += sample.wall_s
        units += sample.wall_s / reference_s
    return wall_s, units


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, runner: Runner, cache: Path
) -> list[Sample]:
    """Whole rounds until the next one would overrun ``seconds``.

    Untraced, each request follows a run of the REFERENCE process.  With
    ``trace`` every request runs untraced and traced back to back instead,
    alternating which goes first, so the two sets see the same requests.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    for order in rounds(workload, seed):
        round_start = time.perf_counter()
        for request in order:
            if trace:
                modes = (False, True) if len(samples) // 2 % 2 == 0 else (True, False)
                reference_s = None
            else:
                modes, reference_s = (False,), runner.reference(cache)
            for traced in modes:
                if not workload.warm:
                    shutil.rmtree(cache, ignore_errors=True)
                samples.append(runner.run(request, cache, traced, reference_s))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return samples


# -- statistics ---------------------------------------------------------------


def tail_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile; refused without TAIL_SAMPLES beyond it."""
    rank = math.ceil(round(q * len(values), 9))
    if len(values) - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} needs {TAIL_SAMPLES} samples beyond it; "
            f"{len(values)} samples leave {len(values) - rank}"
        )
    return sorted(values)[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end_metrics(samples: Sequence[Sample], setup_s: float) -> dict[str, float]:
    """The BENCHMARK.json end-to-end metrics of one untraced run."""
    walls = [sample.wall_s for sample in samples]
    references = [sample.reference_s for sample in samples]
    relative = [
        wall / statistics.median(
            references[max(0, index - REFERENCE_WINDOW): index + REFERENCE_WINDOW + 1]
        )
        for index, wall in enumerate(walls)
    ]
    return {
        "wall_p50_rel": statistics.median(relative),
        "throughput_rel": sum(references) / sum(walls),
        "peak_rss_mb": statistics.median(sample.rss_kb / 1024 for sample in samples),
        "setup_s": setup_s,
    }


def raw_metrics(samples: Sequence[Sample]) -> dict[str, float | None]:
    """Wall-clock figures as measured, for the --out file; p90 when allowed."""
    walls = [sample.wall_s * 1e3 for sample in samples]
    try:
        p90: float | None = tail_percentile(walls, 0.9)
    except ValueError:
        p90 = None
    return {
        "wall_p50_ms": statistics.median(walls),
        "wall_p90_ms": p90,
        "requests_per_s": len(walls) / (sum(walls) / 1e3),
        "reference_p50_ms": statistics.median(s.reference_s * 1e3 for s in samples),
    }


def self_times(spans: Sequence[Sequence[Any]]) -> list[int]:
    """Each span's duration minus the part of its interval children cover.

    ``spans`` are ``[name, start, end, parent]`` with ``parent`` the index
    of the enclosing span (``-1`` for a root).
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0, start
        for child_start, child_end in sorted(children[index]):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(end - start - covered)
    return result


def request_layers(trace: dict) -> dict[str, float]:
    """One traced request's ``X.ms``/``X.self_ms``/``X.calls`` and counts."""
    values = {
        f"{name}.{suffix}": 0.0 for name in SPAN_NAMES for suffix in ("ms", "self_ms", "calls")
    }
    for (name, start, end, _), own in zip(trace["spans"], self_times(trace["spans"])):
        values[f"{name}.ms"] += (end - start) / 1e6
        values[f"{name}.self_ms"] += own / 1e6
        values[f"{name}.calls"] += 1
    for name in COUNT_NAMES:
        values[name] = float(trace["counts"].get(name, 0))
    return values


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(samples: Sequence[Sample]) -> dict[str, float]:
    """Per-layer medians per traced request, ratios and the trace overhead."""
    traced = [sample for sample in samples if sample.traced and sample.trace is not None]
    rows = [request_layers(sample.trace) for sample in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    total = {name: sum(row[name] for row in rows) for name in COUNT_NAMES}
    evaluated = total["tiling.select_sizes.evaluated"]
    metrics["tiling.select_sizes.useful_ratio"] = _ratio(
        evaluated, evaluated + total["tiling.select_sizes.pruned"]
    )
    metrics["cache.hit_ratio"] = _ratio(
        total["cache.hits"], total["cache.hits"] + total["cache.misses"]
    )
    # measure() runs each request untraced and traced back to back.
    slowdowns = []
    for first, second in zip(samples[::2], samples[1::2]):
        plain, instrumented = (second, first) if first.traced else (first, second)
        slowdowns.append(instrumented.wall_s / plain.wall_s)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(slowdowns) - 1.0)
    return metrics


def metric_unit(name: str) -> str:
    """Unit of an end-to-end or per-layer metric, from its name."""
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    units = {
        "wall_p50_rel": "ratio",
        "throughput_rel": "ratio",
        "peak_rss_mb": "MB",
        "setup_s": "s",
        "codegen.cuda.bytes": "bytes",
        "trace.overhead_pct": "%",
    }
    if name in units:
        return units[name]
    return "ratio" if name.endswith("_ratio") else "count"


# -- one benchmark run --------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and summarise one workload."""
    golden = load_golden()
    workdir = RUNS / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, golden)
        cache = workdir / "cache"
        setups: list[tuple[float, float]] = []
        while len(setups) < SETUP_REPEATS and sum(w for w, _ in setups) < SETUP_BUDGET_S:
            setups.append(set_up(workload, runner, cache))
        samples = measure(workload, seed, seconds, trace, runner, cache)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [sample for sample in samples if sample.error is not None]
    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(samples),
        "failed": len(failures),
        "failures": [
            {"argv": list(s.request.argv), "traced": s.traced, "error": s.error}
            for s in failures
        ],
        "setup_wall_s": [wall_s for wall_s, _ in setups],
        "requests": [
            {
                "argv": list(s.request.argv),
                "traced": s.traced,
                "wall_ms": round(s.wall_s * 1e3, 3),
                "rss_kb": s.rss_kb,
                "exit_code": s.exit_code,
                "reference_ms": None if s.reference_s is None else round(s.reference_s * 1e3, 3),
            }
            for s in samples
        ],
    }
    if trace:
        result["per_layer"] = layer_metrics(samples)
        write_trace(workload, seed, samples)
    else:
        setup_s = statistics.median(units for _, units in setups) * REFERENCE_NOMINAL_S
        result["end_to_end"] = end_to_end_metrics(samples, setup_s)
        result["raw"] = raw_metrics(samples)
    return result


def write_trace(workload: Workload, seed: int, samples: Sequence[Sample]) -> Path:
    """All spans of the traced requests in one file under .runs/."""
    spans, requests = [], []
    for request_id, sample in enumerate(s for s in samples if s.trace is not None):
        requests.append(
            {"request": request_id, "argv": list(sample.request.argv),
             "counts": sample.trace["counts"]}
        )
        for name, start, end, parent in sample.trace["spans"]:
            spans.append(
                {"request": request_id, "name": name, "start_ns": start,
                 "end_ns": end, "parent": parent}
            )
    path = RUNS / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({"requests": requests, "spans": spans}), encoding="utf-8")
    return path


def result_line(results: Sequence[dict]) -> dict:
    """The one-line JSON result; metric names get a workload prefix when
    several workloads ran."""
    metrics = {}
    for result in results:
        values = result.get("per_layer") or result["end_to_end"]
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": metric_unit(name)}
    failed = sum(result["failed"] for result in results)
    return {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results),
        "failed": failed,
        "metrics": metrics,
    }


def describe(result: dict) -> str:
    head = (
        f"{result['workload']}: {result['attempted']} requests, {result['failed']} failed, "
        f"set-up {statistics.median(result['setup_wall_s']):.2f} s"
    )
    if "end_to_end" in result:
        e2e, raw = result["end_to_end"], result["raw"]
        p90 = raw["wall_p90_ms"]
        return (
            f"{head}, p50 {raw['wall_p50_ms']:.1f} ms ({e2e['wall_p50_rel']:.3f} x reference "
            f"{raw['reference_p50_ms']:.1f} ms), p90 {'n/a' if p90 is None else f'{p90:.1f} ms'}, "
            f"{raw['requests_per_s']:.3f} req/s, peak RSS {e2e['peak_rss_mb']:.1f} MB"
        )
    layers = result["per_layer"]
    top = sorted(
        (name for name in layers if name.endswith(".self_ms")),
        key=lambda name: -layers[name],
    )[:4]
    ranked = ", ".join(f"{name} {layers[name]:.1f}" for name in top)
    return f"{head}, trace overhead {layers['trace.overhead_pct']:.1f}%, top self ms: {ranked}"


# -- comparing two commits ----------------------------------------------------


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def verdict(parent: Sequence[float], change: Sequence[float], bound: float, better: str) -> str:
    """within / worse / better / unresolved, from the metric's bound."""
    sign = 1.0 if better == "lower" else -1.0
    (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(parent), quartiles(change)
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    worse_by = sign * (b_med - a_med) / a_med
    if spread > bound:
        if all(sign * (b - a) < 0 for a in parent for b in change):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def _load_end_to_end(paths: Sequence[str]) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for result in document["results"]:
            if "end_to_end" in result:
                runs[result["workload"]].append(result["end_to_end"])
    return runs


def compare(argv: Sequence[str]) -> int:
    """``compare A.json... -- B.json...``: one row per workload and metric."""
    if "--" not in argv:
        print("usage: run.py compare PARENT.json... -- CHANGE.json...", file=sys.stderr)
        return 2
    split = list(argv).index("--")
    parent, change = _load_end_to_end(argv[:split]), _load_end_to_end(argv[split + 1:])
    specs = benchmark_spec()["end_to_end"]
    print(f"{'workload':<16} {'metric':<15} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>7}  verdict")
    worse = False
    for name in sorted(set(parent) & set(change)):
        for spec in specs:
            a = [run[spec["name"]] for run in parent[name]]
            b = [run[spec["name"]] for run in change[name]]
            (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(a), quartiles(b)
            outcome = verdict(a, b, spec["bound"], spec["better"])
            worse |= outcome == "worse"
            print(
                f"{name:<16} {spec['name']:<15} "
                f"{f'{a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]':>30} "
                f"{f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]':>30} "
                f"{(b_med / a_med - 1) * 100:+6.1f}%  {outcome}"
            )
    return 1 if worse else 0


# -- command line -------------------------------------------------------------


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run reporting the per-layer metrics",
    )
    parser.add_argument("--out", default=None, help="write the full results here")
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no hexcc sources under {SRC}", file=sys.stderr)
        return 2
    if "HEXCC_FAULT_DELAY" in os.environ:
        print("error: HEXCC_FAULT_DELAY is set; refusing to measure injected delays",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    # Byte-compile up front so no timed request pays for writing .pyc files.
    compileall.compile_dir(SRC, quiet=1)
    results = []
    for name in args.workload or list(WORKLOADS):
        result = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace))
        print(describe(result))
        results.append(result)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"results": results}, handle, indent=1)
    print(json.dumps(result_line(results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

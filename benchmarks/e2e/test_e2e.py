"""Tests of the end-to-end benchmark's own machinery (fast; one tiny smoke run)."""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import traced  # noqa: E402


def _argvs(workload, seed, count):
    generator = run.rounds(workload, seed)
    return [request.argv for _ in range(count) for request in next(generator)]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_fixes_order_and_never_the_request_mix(name):
    workload = run.WORKLOADS[name]
    assert _argvs(workload, 3, 4) == _argvs(workload, 3, 4)
    assert _argvs(workload, 3, 4) != _argvs(workload, 4, 4)
    assert Counter(_argvs(workload, 3, 4)) == Counter(_argvs(workload, 4, 4))


def test_p90_is_refused_below_100_samples():
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        run.tail_percentile(list(range(99)), 0.9)
    assert run.tail_percentile([float(v) for v in range(1, 101)], 0.9) == 90.0


def test_reference_cancels_a_change_of_machine_speed():
    references = [0.1] * 6 + [0.2] * 6  # the machine halves its speed mid-run
    samples = [
        run.Sample(run.LIST_REQUEST, 3 * ref, 40_000, 0, False, None, reference_s=ref)
        for ref in references
    ]
    metrics = run.end_to_end_metrics(samples, setup_s=0.2)
    assert metrics["wall_p50_rel"] == pytest.approx(3.0)
    assert metrics["throughput_rel"] == pytest.approx(1 / 3)
    assert metrics["peak_rss_mb"] == pytest.approx(40_000 / 1024)


def test_self_time_subtracts_the_interval_children_cover():
    spans = [
        ["cli.main", 0, 100, -1],
        ["api.session_run", 10, 60, 0],
        ["cache.get", 20, 30, 1],
        ["cache.put", 25, 40, 1],  # overlaps its sibling: covered once
        ["obs.history", 90, 120, 0],  # clipped to the parent's end
    ]
    assert run.self_times(spans) == [100 - 50 - 10, 50 - 20, 10, 15, 30]
    layers = run.request_layers({"spans": spans, "counts": {"cache.hits": 2}})
    assert layers["cli.main.self_ms"] == pytest.approx(40e-6)
    assert layers["api.session_run.calls"] == 1
    assert layers["cache.hits"] == 2


def test_wrappers_only_wrap():
    tracer = traced.Tracer(layers=())

    def add(a, b=0):
        return a + b

    def fail():
        raise KeyError("boom")

    counted = tracer.wrap("layer.add", add, lambda result: {"layer.sum": result})
    assert counted(2, b=3) == 5
    assert counted.__wrapped__ is add and counted.__name__ == "add"
    with pytest.raises(KeyError, match="boom"):
        tracer.wrap("layer.fail", fail)()
    # A span nested in a span of the same name is not recorded, or counted.
    tracer.call("layer.add", counted, 1)
    assert [span[0] for span in tracer.spans] == ["layer.add", "layer.fail", "layer.add"]
    assert tracer.counts == {"layer.sum": 5}
    assert all(span[1] <= span[2] for span in tracer.spans)


def test_wrappers_replace_originals_by_identity(monkeypatch):
    package = types.ModuleType("fakepkg")
    source = types.ModuleType("fakepkg.source")

    class Solver:
        def solve(self):
            return "solved"

    def plan():
        return "planned"

    source.plan, source.Solver = plan, Solver
    user = types.ModuleType("fakepkg.user")
    user.plan = plan  # as if by `from fakepkg.source import plan`
    for module in (package, source, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = traced.Tracer(
        layers=(
            ("x.plan", "fakepkg.source", "plan", None),
            ("x.solve", "fakepkg.source", "Solver.solve", None),
        ),
        package="fakepkg",
    )
    tracer.patch_loaded()
    tracer.patch_loaded()  # idempotent: never wraps a wrapper
    assert user.plan is source.plan and user.plan.__wrapped__ is plan
    assert user.plan() == "planned" and Solver().solve() == "solved"
    assert [span[0] for span in tracer.spans] == ["x.plan", "x.solve"]


def test_every_layer_target_exists():
    from repro.api.strategies import get_strategy, list_strategies

    for _, module_name, qualname, _ in traced.LAYERS:
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}:{qualname}"
    wrapped = {(m, q) for _, m, q, _ in traced.LAYERS}
    for name in list_strategies():
        cls = type(get_strategy(name))
        assert (cls.__module__, f"{cls.__qualname__}.plan") in wrapped


def test_benchmark_json_names_every_metric():
    from repro.stencils import list_stencils

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    e2e = run.end_to_end_metrics(
        [run.Sample(run.LIST_REQUEST, 0.2, 40_000, 0, False, None, reference_s=0.1)], 1.0
    )
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layers = {
        f"{name}.{suffix}" for name in traced.SPAN_NAMES for suffix in ("ms", "self_ms", "calls")
    }
    layers |= set(traced.COUNT_NAMES)
    layers |= {"tiling.select_sizes.useful_ratio", "cache.hit_ratio", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.metric_unit(metric["name"])
    assert sorted(run.ALL_STENCILS) == sorted(list_stencils())
    golden = run.load_golden()
    for workload in run.WORKLOADS.values():
        for request in workload.round:
            assert request.key in golden or request.kind in ("verify", "mutant")


def test_warm_compile_smoke_passes_the_golden_check(tmp_path):
    runner = run.Runner(tmp_path, run.load_golden())
    cache = tmp_path / "cache"
    request = run.compile_request("jacobi_1d", "gtx470")
    start = time.perf_counter()
    samples = [runner.run(request, cache) for _ in range(3)]  # fill, then 2 warm
    assert all(sample.error is None for sample in samples), samples
    assert all(0 < sample.wall_s < time.perf_counter() - start for sample in samples)
    assert all(sample.rss_kb > 0 for sample in samples)
    # A wrong answer is caught.
    stdout = "  tile sizes : h=16, w=(32)\n/* Generated by a different compiler */\n"
    assert run.check(request, 0, stdout, runner.golden).startswith("output differs")
    assert run.check(request, 1, stdout, runner.golden).startswith("exit code 1")

"""Tests of the experiment harnesses (Tables 1-5, Figures 2-6)."""

import pytest

from repro.experiments import (
    PAPER_TABLE4,
    figure2_core_ptx,
    figure3_dependence_cone,
    figure4_hexagon,
    figure5_tiling_pattern,
    figure6_schedule,
    format_comparison,
    format_table3,
    format_table4,
    format_table5,
    run_ablation,
    run_comparison,
    run_counter_ablation,
    table3_characteristics,
)
from repro.cache import DiskCache
from repro.gpu.device import GTX470, NVS5200M
from repro.api import OptimizationConfig, table4_configurations
from repro.stencils import paper_benchmarks


def test_table3_rows_cover_all_benchmarks():
    rows = table3_characteristics()
    benchmarks = {row["benchmark"] for row in rows}
    assert benchmarks == set(paper_benchmarks())
    assert len(rows) == 9   # fdtd contributes three statements
    text = format_table3(rows)
    assert "heat_3d" in text and "27" in text


@pytest.fixture(scope="module")
def gtx_comparison():
    return run_comparison(GTX470)


def test_comparison_produces_all_tools(gtx_comparison):
    tools = {row.tool for row in gtx_comparison}
    assert tools == {"ppcg", "par4all", "overtile", "hybrid"}
    benchmarks = {row.benchmark for row in gtx_comparison}
    assert benchmarks == set(paper_benchmarks())


def test_hybrid_beats_ppcg_everywhere(gtx_comparison):
    """The paper's headline claim: consistent speedups over baseline PPCG."""
    for row in gtx_comparison:
        if row.tool == "hybrid":
            assert row.speedup_over_ppcg is not None and row.speedup_over_ppcg > 1.0


def test_hybrid_is_best_or_close_to_best(gtx_comparison):
    """Hybrid is the best tool (within 15%) on every benchmark."""
    by_benchmark: dict[str, list] = {}
    for row in gtx_comparison:
        if row.gstencils_per_second is not None:
            by_benchmark.setdefault(row.benchmark, []).append(row)
    for benchmark, rows in by_benchmark.items():
        best = max(r.gstencils_per_second for r in rows)
        hybrid = next(r for r in rows if r.tool == "hybrid").gstencils_per_second
        assert hybrid >= 0.85 * best, benchmark


def test_par4all_invalid_cuda_on_fdtd(gtx_comparison):
    row = next(r for r in gtx_comparison if r.tool == "par4all" and r.benchmark == "fdtd_2d")
    assert row.gstencils_per_second is None
    assert row.failure is not None


def test_comparison_formatting(gtx_comparison):
    text = format_comparison(gtx_comparison, GTX470)
    assert "GTX 470" in text
    assert "invalid CUDA" in text
    assert "laplacian_2d" in text


def test_nvs_comparison_is_slower_than_gtx(gtx_comparison):
    nvs_rows = run_comparison(NVS5200M, benchmarks=["heat_2d"])
    nvs_hybrid = next(r for r in nvs_rows if r.tool == "hybrid").gstencils_per_second
    gtx_hybrid = next(
        r for r in gtx_comparison if r.tool == "hybrid" and r.benchmark == "heat_2d"
    ).gstencils_per_second
    assert gtx_hybrid > 2 * nvs_hybrid


def test_ablation_rows_and_shape():
    rows = run_ablation(devices=(NVS5200M,))
    assert [row.configuration for row in rows] == list("abcdef")
    gflops = {row.configuration: row.gflops for row in rows}
    # The full configuration must beat the unoptimised shared-memory one.
    assert gflops["f"] > gflops["b"]
    # Static reuse (e) loses to dynamic reuse (f) because of bank conflicts.
    assert gflops["f"] > gflops["e"]
    assert "Table 4" in format_table4(rows)


def test_counter_ablation_matches_table5_shape():
    rows = run_counter_ablation(device=GTX470)
    by_config = {row["configuration"]: row for row in rows}
    # (a) performs vastly more global load instructions than (b)-(f).
    assert by_config["a"]["gld_inst_32bit"] > 10 * by_config["b"]["gld_inst_32bit"]
    # Aligned loads (d) reduce DRAM read transactions versus (c).
    assert by_config["d"]["dram_read_transactions"] < by_config["c"]["dram_read_transactions"]
    # Inter-tile reuse (e)/(f) reaches 100% global load efficiency.
    assert by_config["e"]["gld_efficiency_percent"] == pytest.approx(100.0)
    assert by_config["f"]["gld_efficiency_percent"] == pytest.approx(100.0)
    # The static mapping (e) pays shared-memory bank conflicts, (f) does not.
    assert by_config["e"]["shared_loads_per_request"] > by_config["f"]["shared_loads_per_request"]
    assert "Table 5" in format_table5(rows)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda cache: run_ablation(devices=(GTX470,), disk_cache=cache),
        lambda cache: run_counter_ablation(device=GTX470, disk_cache=cache),
    ],
    ids=["ablation", "counter_ablation"],
)
def test_experiment_sweeps_are_cache_invariant(sweep, tmp_path):
    """Tables 4 and 5 read the same from a cold, a warm and no disk cache."""
    uncached = sweep(None)
    cold = DiskCache(tmp_path / "hexcc")
    assert sweep(cold) == uncached
    assert cold.stores > 0
    warm = DiskCache(tmp_path / "hexcc")
    assert sweep(warm) == uncached
    assert warm.stores == 0 and warm.misses == 0 and warm.hits > 0


def test_figure2_matches_paper_instruction_mix():
    summary = figure2_core_ptx()
    assert summary.shared_loads == 3
    assert summary.shared_stores == 1
    assert summary.arithmetic == 5


def test_figure3_cone_values():
    data = figure3_dependence_cone()
    assert set(map(tuple, data["distance_vectors"])) == {(1, -2), (2, 2)}
    assert data["delta0"] == 1 and data["delta1"] == 2


def test_figure4_hexagon_data():
    data = figure4_hexagon()
    assert data["points"] == 36
    assert data["time_period"] == 6
    assert data["ascii"].count("#") == 36


def test_figure5_pattern_has_parallel_wavefronts():
    data = figure5_tiling_pattern()
    assert data["blue_tiles"] > 0 and data["green_tiles"] > 0
    assert max(data["parallel_tiles_per_wavefront"].values()) > 1


def test_figure6_schedule_expressions():
    expressions = figure6_schedule()
    assert "phase0_T" in expressions and "phase1_S0" in expressions
    assert "floord" in expressions["phase0_T"]


def test_table4_paper_reference_is_monotone():
    """Sanity check of the transcribed paper data itself."""
    for device, rows in PAPER_TABLE4.items():
        assert rows["f"] > rows["a"]


def test_optimization_config_labels():
    for label, config in table4_configurations().items():
        assert config.label == label
    assert OptimizationConfig.default() == OptimizationConfig.config_f()

"""Tables 1 and 2: comparison of hybrid tiling with the baseline compilers."""

from __future__ import annotations

from repro._record import dataclass
from repro.baselines import OvertileBaseline, Par4AllBaseline, PPCGBaseline, PatusBaseline
from repro.cache import DiskCache
from repro.api import Session
from repro.experiments.paper_data import (
    PAPER_TABLE1_GTX470,
    PAPER_TABLE2_NVS5200,
    PAPER_TILE_SIZES,
)
from repro.gpu.device import GPUDevice, GTX470
from repro.stencils import get_stencil, paper_benchmarks

TOOLS = ("ppcg", "par4all", "overtile", "hybrid")


@dataclass
class ComparisonRow:
    """Result of one (benchmark, tool) combination."""

    benchmark: str
    tool: str
    gstencils_per_second: float | None
    speedup_over_ppcg: float | None
    paper_gstencils: float | None
    strategy: str = ""
    failure: str | None = None


def _paper_reference(device: GPUDevice) -> dict[str, dict[str, float | None]]:
    return PAPER_TABLE1_GTX470 if device.name == GTX470.name else PAPER_TABLE2_NVS5200


def comparison_rows_for_benchmark(
    benchmark: str,
    device: GPUDevice = GTX470,
    include_patus: bool = False,
    disk_cache: DiskCache | None = None,
) -> list[ComparisonRow]:
    """All (tool, benchmark) rows of one benchmark."""
    reference = _paper_reference(device)
    baselines = {
        "ppcg": PPCGBaseline(),
        "par4all": Par4AllBaseline(),
        "overtile": OvertileBaseline(tuning_device=device),
    }
    if include_patus:
        baselines["patus"] = PatusBaseline()

    program = get_stencil(benchmark)
    paper_row = reference.get(benchmark, {})
    results: dict[str, ComparisonRow] = {}

    ppcg_gs: float | None = None
    for tool, baseline in baselines.items():
        outcome = baseline.compile(program)
        if not outcome.supported:
            results[tool] = ComparisonRow(
                benchmark=benchmark,
                tool=tool,
                gstencils_per_second=None,
                speedup_over_ppcg=None,
                paper_gstencils=paper_row.get(tool),
                failure=outcome.failure_reason,
            )
            continue
        report = outcome.performance(device)
        assert report is not None
        gs = report.gstencils_per_second
        if tool == "ppcg":
            ppcg_gs = gs
        results[tool] = ComparisonRow(
            benchmark=benchmark,
            tool=tool,
            gstencils_per_second=gs,
            speedup_over_ppcg=None,
            paper_gstencils=paper_row.get(tool),
            strategy=outcome.strategy,
        )

    run = Session(device, disk_cache=disk_cache).run(
        program, tile_sizes=PAPER_TILE_SIZES.get(benchmark), stop_after="analysis"
    )
    report = run.artifact("analysis").report
    results["hybrid"] = ComparisonRow(
        benchmark=benchmark,
        tool="hybrid",
        gstencils_per_second=report.gstencils_per_second,
        speedup_over_ppcg=None,
        paper_gstencils=paper_row.get("hybrid"),
        strategy=f"hybrid hexagonal/classical, {run.artifact('tiling').tiling.sizes}",
    )

    rows: list[ComparisonRow] = []
    for row in results.values():
        if row.gstencils_per_second is not None and ppcg_gs:
            row.speedup_over_ppcg = row.gstencils_per_second / ppcg_gs
        rows.append(row)
    return rows


def run_comparison(
    device: GPUDevice = GTX470,
    benchmarks: list[str] | None = None,
    include_patus: bool = False,
    disk_cache: DiskCache | None = None,
) -> list[ComparisonRow]:
    """Run the Table 1 / Table 2 comparison on one device.

    Every tool (hybrid compiler and baseline models) is evaluated on the
    paper-sized problem instances through the same analytic GPU model, so the
    comparison reflects differences between the tiling strategies rather than
    tuned constants.
    """
    return [
        row
        for benchmark in benchmarks or paper_benchmarks()
        for row in comparison_rows_for_benchmark(
            benchmark, device, include_patus, disk_cache
        )
    ]


def format_comparison(rows: list[ComparisonRow], device: GPUDevice) -> str:
    """Render the comparison like Table 1 / Table 2 of the paper."""
    benchmarks = []
    for row in rows:
        if row.benchmark not in benchmarks:
            benchmarks.append(row.benchmark)
    by_key = {(r.benchmark, r.tool): r for r in rows}
    table = []
    for benchmark in benchmarks:
        cells = []
        for tool in TOOLS:
            row = by_key.get((benchmark, tool))
            if row is None:
                cells.append("-")
            elif row.gstencils_per_second is None:
                cells.append("invalid CUDA")
            else:
                speedup = (
                    f" ({(row.speedup_over_ppcg - 1) * 100:+.0f}%)"
                    if row.speedup_over_ppcg
                    else ""
                )
                paper = (
                    f" [{row.paper_gstencils:g}]" if row.paper_gstencils is not None else ""
                )
                cells.append(f"{row.gstencils_per_second:9.2f}{speedup}{paper:>10}")
        table.append((benchmark, cells))
    # Every tool column is as wide as its widest cell, so no cell is cut.
    width = max([24, *(len(cell) + 1 for _, cells in table for cell in cells)])
    lines = [
        f"Performance on {device.name}: GStencils/second (speedup over PPCG) "
        "[paper value in brackets]",
        f"{'benchmark':<15}" + "".join(f"{tool:>{width}}" for tool in TOOLS),
        "-" * (15 + width * len(TOOLS)),
    ]
    for benchmark, cells in table:
        lines.append(f"{benchmark:<15}" + "".join(cell.rjust(width) for cell in cells))
    return "\n".join(lines)

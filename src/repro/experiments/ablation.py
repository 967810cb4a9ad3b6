"""Tables 4 and 5: the shared-memory optimisation ablation on heat 3D."""

from __future__ import annotations

from repro._record import dataclass
from repro.cache import DiskCache
from repro.api import Session
from repro.experiments.paper_data import PAPER_TABLE4, PAPER_TABLE5, PAPER_TILE_SIZES
from repro.gpu.device import GPUDevice, GTX470, NVS5200M
from repro.api import table4_configurations
from repro.stencils import get_stencil
from repro.tiling.hybrid import TileSizes


@dataclass
class AblationRow:
    """One configuration of Table 4 on one device."""

    configuration: str
    device: str
    gflops: float
    gstencils_per_second: float
    speedup_over_previous: float | None
    bound_by: str
    paper_gflops: float | None


def ablation_rows_for_device(
    device: GPUDevice,
    benchmark: str = "heat_3d",
    tile_sizes: TileSizes | None = None,
    disk_cache: DiskCache | None = None,
) -> list[AblationRow]:
    """Table 4 rows of one device.

    Each row's speedup column refers to the previous configuration.
    """
    tile_sizes = tile_sizes or PAPER_TILE_SIZES[benchmark]
    program = get_stencil(benchmark)
    session = Session(device, disk_cache=disk_cache)
    rows: list[AblationRow] = []
    previous: float | None = None
    for label, config in table4_configurations().items():
        run = session.run(
            program, tile_sizes=tile_sizes, config=config, stop_after="analysis"
        )
        report = run.artifact("analysis").report
        speedup = report.gflops / previous if previous else None
        paper = PAPER_TABLE4.get(device.name, {}).get(label)
        rows.append(
            AblationRow(
                configuration=label,
                device=device.name,
                gflops=report.gflops,
                gstencils_per_second=report.gstencils_per_second,
                speedup_over_previous=speedup,
                bound_by=report.bound_by,
                paper_gflops=paper,
            )
        )
        previous = report.gflops
    return rows


def run_ablation(
    benchmark: str = "heat_3d",
    devices: tuple[GPUDevice, ...] = (NVS5200M, GTX470),
    tile_sizes: TileSizes | None = None,
    disk_cache: DiskCache | None = None,
) -> list[AblationRow]:
    """Reproduce Table 4: GFLOPS of heat 3D under configurations (a)-(f)."""
    return [
        row
        for device in devices
        for row in ablation_rows_for_device(device, benchmark, tile_sizes, disk_cache)
    ]


def counter_row_for_config(
    label: str,
    benchmark: str = "heat_3d",
    device: GPUDevice = GTX470,
    tile_sizes: TileSizes | None = None,
    disk_cache: DiskCache | None = None,
) -> dict[str, object]:
    """One Table 5 row."""
    tile_sizes = tile_sizes or PAPER_TILE_SIZES[benchmark]
    program = get_stencil(benchmark)
    config = table4_configurations()[label]
    run = Session(device, disk_cache=disk_cache).run(
        program, tile_sizes=tile_sizes, config=config, stop_after="analysis"
    )
    estimate = run.artifact("analysis").estimate
    table5 = estimate.counters.as_table5_row()
    paper = PAPER_TABLE5.get(label, {})
    return {
        "configuration": label,
        "gld_inst_32bit": table5["gld_inst_32bit"],
        "dram_read_transactions": table5["dram_read_transactions"],
        "l2_read_transactions": table5["l2_read_transactions"],
        "shared_loads_per_request": table5["shared_loads_per_request"],
        "gld_efficiency_percent": table5["gld_efficiency_percent"],
        "paper": paper,
    }


def run_counter_ablation(
    benchmark: str = "heat_3d",
    device: GPUDevice = GTX470,
    tile_sizes: TileSizes | None = None,
    disk_cache: DiskCache | None = None,
) -> list[dict[str, object]]:
    """Reproduce Table 5: performance counters for configurations (a)-(f)."""
    return [
        counter_row_for_config(label, benchmark, device, tile_sizes, disk_cache)
        for label in table4_configurations()
    ]


def format_table4(rows: list[AblationRow]) -> str:
    lines = [
        "Table 4 — optimisation steps, heat 3D: GFLOPS (speedup over previous) [paper]",
        f"{'config':<8}{'device':<12}{'GFLOPS':>10}{'step':>9}{'bound by':>16}{'paper':>8}",
        "-" * 63,
    ]
    for row in rows:
        step = (
            f"{(row.speedup_over_previous - 1) * 100:+.0f}%"
            if row.speedup_over_previous is not None
            else "-"
        )
        paper = f"{row.paper_gflops:g}" if row.paper_gflops is not None else "-"
        lines.append(
            f"({row.configuration})    {row.device:<12}{row.gflops:>10.1f}{step:>9}"
            f"{row.bound_by:>16}{paper:>8}"
        )
    return "\n".join(lines)


def format_table5(rows: list[dict[str, object]]) -> str:
    lines = [
        "Table 5 — performance counters (events x 1e9) [paper values in brackets]",
        f"{'cfg':<5}{'gld inst':>16}{'dram read':>16}{'l2 read':>16}"
        f"{'shared/req':>12}{'gld eff':>10}",
        "-" * 75,
    ]
    for row in rows:
        paper = row["paper"]

        def with_paper(value: float, key: str, format_spec: str = ".2f") -> str:
            reference = paper.get(key) if isinstance(paper, dict) else None
            text = f"{value:{format_spec}}"
            if reference is not None:
                text += f" [{reference:g}]"
            return text

        lines.append(
            f"({row['configuration']})  "
            f"{with_paper(row['gld_inst_32bit'], 'gld', '.1f'):>16}"
            f"{with_paper(row['dram_read_transactions'], 'dram'):>16}"
            f"{with_paper(row['l2_read_transactions'], 'l2'):>16}"
            f"{with_paper(row['shared_loads_per_request'], 'shared_per_request', '.1f'):>12}"
            f"{with_paper(row['gld_efficiency_percent'], 'gld_eff', '.0f'):>10}"
        )
    return "\n".join(lines)

"""Overtile baseline: overlapped (trapezoidal) time tiling with redundancy.

Overtile [Holewinski et al. 2012] time-tiles stencils for GPUs by having each
thread block compute an enlarged tile whose halo region is recomputed
redundantly, so blocks never need to exchange intermediate results.  This
buys reuse along the time dimension at the cost of

* redundant computation that grows with the time-tile height and the stencil
  radius (quadratically/cubically with the dimensionality), and
* thread divergence and extra shared memory for the halo values.

The model includes Overtile's auto-tuner: it sweeps the time-tile height and
block edge (the paper explored 800 configurations per benchmark) and keeps
the best predicted configuration.  For the 3D kernels the redundant halo
volume makes every time-tiled configuration lose, so the tuner falls back to
pure spatial tiling — exactly the behaviour the paper observed ("Overtile is
not able to effectively exploit time tiling for 3D kernels").
"""

from __future__ import annotations

from repro._record import dataclass
from repro.baselines.base import BaselineCompiler, BaselineResult
from repro.codegen.kernel_ir import analyze_core_loop, average_instructions_per_point
from repro.gpu.counters import PerformanceCounters
from repro.gpu.device import GPUDevice, GTX470
from repro.gpu.perf_model import LaunchConfiguration, PerformanceModel
from repro.model.program import StencilProgram


@dataclass(frozen=True)
class OvertileConfiguration:
    """One point of the Overtile auto-tuning space."""

    time_height: int
    block_edge: int

    def __str__(self) -> str:
        return f"time={self.time_height}, edge={self.block_edge}"


class OvertileBaseline(BaselineCompiler):
    """Model of Overtile's overlapped tiling plus its auto-tuner."""

    name = "overtile"
    threads_per_block = 256
    time_heights = (1, 2, 3, 4, 6, 8)
    block_edges = (16, 32, 64)

    def __init__(self, tuning_device: GPUDevice = GTX470) -> None:
        self.tuning_device = tuning_device

    # -- auto-tuner -----------------------------------------------------------------------

    def compile(self, program: StencilProgram) -> BaselineResult:
        best: BaselineResult | None = None
        best_time = float("inf")
        model = PerformanceModel(self.tuning_device)
        for height in self.time_heights:
            for edge in self.block_edges:
                configuration = OvertileConfiguration(height, edge)
                if not self._fits_shared_memory(program, configuration):
                    continue
                candidate = self._compile_with(program, configuration)
                assert candidate.counters is not None and candidate.launch is not None
                report = model.estimate(candidate.counters, candidate.launch)
                if report.total_time_s < best_time:
                    best_time = report.total_time_s
                    best = candidate
        assert best is not None
        return best

    def _fits_shared_memory(
        self, program: StencilProgram, configuration: OvertileConfiguration
    ) -> bool:
        """Overlapped tiles must hold their (inflated) footprint in shared memory.

        This is what prevents Overtile from exploiting time tiling on the 3D
        kernels: the halo-inflated 3D footprint of any useful time-tile height
        exceeds the 48 KB of shared memory, so only spatial tiling (or a very
        small time height) remains feasible — matching the paper's observation.
        """
        radius = program.spatial_radius()
        span = configuration.block_edge + 2 * radius * configuration.time_height
        footprint = (span ** program.ndim) * 4 * len(program.fields)
        return footprint <= self.tuning_device.shared_memory_per_sm

    # -- one configuration -------------------------------------------------------------------

    def _compile_with(
        self, program: StencilProgram, configuration: OvertileConfiguration
    ) -> BaselineResult:
        updates = float(program.stencil_updates())
        steps = program.time_steps
        grid = float(self.grid_elements(program))
        radius = program.spatial_radius()
        height = configuration.time_height
        edge = configuration.block_edge

        # Redundancy: a block computing an edge^d output tile over `height`
        # time steps must compute (edge + 2*r*(height-1))^d points at the
        # bottom of the trapezoid, shrinking as time advances.
        redundancy = 1.0
        for _ in range(program.ndim):
            redundancy *= (edge + 2 * radius * (height - 1)) / edge
        redundancy = (1.0 + redundancy) / 2.0  # average over the trapezoid

        computed = updates * redundancy
        counters = PerformanceCounters()
        counters.stencil_updates = updates
        counters.redundant_updates = computed - updates
        flops_per_update = program.flops_total() / updates
        counters.flops = computed * flops_per_update

        # Global traffic: the grid is read and written once per *time tile*
        # (that is the whole point of time tiling), with the halo reloaded.
        halo = self.halo_fraction(program, edge)
        fields = len(program.fields)
        time_tiles = max(1, steps // height)
        counters.gld_instructions = grid * halo * fields * time_tiles
        counters.requested_global_bytes = counters.gld_instructions * 4.0
        counters.transferred_global_bytes = counters.requested_global_bytes * 1.1
        counters.dram_read_transactions = counters.transferred_global_bytes / 32.0
        counters.l2_read_transactions = counters.dram_read_transactions * 1.2
        counters.gst_instructions = updates
        counters.dram_write_transactions = updates * 4.0 / 32.0

        counters.shared_load_requests = computed * self.average_loads(program) / 32.0
        counters.shared_load_transactions = counters.shared_load_requests
        counters.shared_store_requests = computed / 32.0 + counters.gld_instructions / 32.0

        profiles = analyze_core_loop(
            program,
            unroll=True,
            separate_full_partial=False,
            use_shared_memory=True,
        )
        counters.instructions = computed * average_instructions_per_point(profiles)
        counters.instructions += counters.gld_instructions * 3.0

        counters.kernel_launches = float(time_tiles)
        counters.barriers = float(time_tiles * height)
        counters.host_device_bytes = 2.0 * program.data_bytes()

        shared_bytes = int(
            4 * fields * (edge + 2 * radius * height) ** min(program.ndim, 2)
        )
        launch = LaunchConfiguration(
            threads_per_block=self.threads_per_block,
            blocks=max(1, int(grid // (edge ** program.ndim))),
            shared_bytes_per_block=min(shared_bytes, 48 * 1024),
            unrolled=True,
            divergence_free=height <= 1,
            useful_fraction=max(0.05, updates / computed),
            overlap_stores=True,
        )
        return BaselineResult(
            tool=self.name,
            program_name=program.name,
            supported=True,
            counters=counters,
            launch=launch,
            strategy=(
                f"overlapped tiling, {configuration}, redundancy {redundancy:.2f}x"
                + (" (fell back to spatial tiling)" if height == 1 else "")
            ),
        )

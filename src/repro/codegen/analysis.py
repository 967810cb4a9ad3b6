"""Analytic execution profiling of hybrid-tiled programs.

This module turns a hybrid compilation (tiling + shared-memory plan +
optimisation configuration) into the performance counters of Table 5 and the
launch configuration the roofline model needs, for the full, paper-sized
problem instances.  Everything is *counted* from the tiling geometry, the
stencil's access pattern and the configuration — the same quantities a real
run would report through nvprof — rather than measured, which is the
substitution for the missing GPU hardware documented in DESIGN.md.
"""

from __future__ import annotations

import math

from repro._record import dataclass
from repro.codegen.kernel_ir import (
    analyze_core_loop,
    average_instructions_per_point,
    average_loads_after_reuse,
)
from repro.codegen.shared_mem import SharedMemoryPlan
from repro.gpu.counters import PerformanceCounters
from repro.gpu.device import GPUDevice
from repro.gpu.memory import CoalescingModel, SharedMemoryModel
from repro.gpu.perf_model import LaunchConfiguration, PerformanceModel, PerformanceReport
from repro.api.config import OptimizationConfig
from repro.tiling.hybrid import HybridTiling


@dataclass(frozen=True)
class TileCounts:
    """How many tiles of each kind one full run executes."""

    time_tiles: int          # host-loop iterations (each launches two kernels)
    blocks_per_launch: int   # S0 tiles per kernel launch
    sequential_tiles: int    # product of the classical S1..Sn tile counts
    total_tiles: int         # overall number of (T, p, S0, ..., Sn) tiles

    def __str__(self) -> str:
        return (
            f"TileCounts(T={self.time_tiles}, blocks={self.blocks_per_launch}, "
            f"sequential={self.sequential_tiles}, total={self.total_tiles})"
        )


@dataclass(frozen=True)
class ExecutionEstimate:
    """Counters plus launch configuration for one compiled program."""

    counters: PerformanceCounters
    launch: LaunchConfiguration
    tile_counts: TileCounts

    def performance(self, device: GPUDevice) -> PerformanceReport:
        """Convenience wrapper running the roofline model."""
        return PerformanceModel(device).estimate(self.counters, self.launch)


class AnalyticProfiler:
    """Builds :class:`ExecutionEstimate` objects for hybrid compilations."""

    def __init__(
        self,
        tiling: HybridTiling,
        plan: SharedMemoryPlan,
        config: OptimizationConfig,
        device: GPUDevice,
    ) -> None:
        self.tiling = tiling
        self.plan = plan
        self.config = config
        self.device = device
        self.program = tiling.canonical.program
        self.coalescing = CoalescingModel(device)
        self.shared_model = SharedMemoryModel(device)

    # -- tile counts --------------------------------------------------------------------

    def count_tiles(self) -> TileCounts:
        tiling = self.tiling
        shape = tiling.shape
        program = self.program
        logical_extent = tiling.canonical.logical_time_extent
        time_tiles = math.ceil((logical_extent + shape.height + 1) / shape.time_period) + 1
        blocks = math.ceil((program.sizes[0] + shape.space_period) / shape.space_period)
        sequential = 1
        for classical, size in zip(tiling.classical, program.sizes[1:]):
            sequential *= math.ceil(size / classical.width) + 1
        total = 2 * time_tiles * blocks * sequential
        return TileCounts(
            time_tiles=time_tiles,
            blocks_per_launch=blocks,
            sequential_tiles=sequential,
            total_tiles=total,
        )

    # -- the profile -----------------------------------------------------------------------

    def estimate(self) -> ExecutionEstimate:
        program = self.program
        config = self.config
        plan = self.plan
        tiles = self.count_tiles()

        updates = float(program.stencil_updates())
        flops = float(program.flops_total())
        profiles = analyze_core_loop(
            program,
            unroll=config.unroll,
            separate_full_partial=config.separate_full_partial,
            use_shared_memory=config.use_shared_memory,
        )
        instructions_per_point = average_instructions_per_point(profiles)
        loads_after_reuse = average_loads_after_reuse(profiles)
        avg_reads_per_point = sum(s.loads for s in program.statements) / len(
            program.statements
        )

        counters = PerformanceCounters()
        counters.stencil_updates = updates
        counters.flops = flops
        counters.kernel_launches = 2.0 * tiles.time_tiles
        counters.barriers = float(tiles.total_tiles * self.tiling.shape.time_period)
        counters.host_device_bytes = 2.0 * program.data_bytes()

        if config.use_shared_memory:
            self._shared_memory_traffic(counters, tiles, updates, loads_after_reuse)
        else:
            self._global_only_traffic(counters, tiles, updates, avg_reads_per_point)

        # Stores to global memory: one per update, coalesced along rows.
        counters.gst_instructions = updates
        store_bytes = updates * 4.0
        counters.dram_write_transactions = store_bytes / self.device.dram_transaction_bytes

        # Instruction stream: core computation + staging + internal copies.
        # (The traffic models above may already have added load-issue or
        # bank-conflict replay costs, hence the accumulation.)
        counters.instructions += updates * instructions_per_point
        if config.use_shared_memory:
            staged = float(plan.loads_per_tile * tiles.total_tiles)
            counters.instructions += staged * 3.0
            if config.inter_tile_reuse == "dynamic":
                counters.instructions += float(
                    plan.internal_copy_elements * tiles.total_tiles
                ) * 2.0

        # A separate copy-out phase is divergent (the set of values to store is
        # not box shaped, Section 4.2.1), so only configurations that
        # interleave the copy-out keep the kernel divergence free.
        divergence_free = config.separate_full_partial and (
            config.interleave_copy_out or not config.use_shared_memory
        )
        launch = LaunchConfiguration(
            threads_per_block=self._threads_per_block(),
            blocks=tiles.blocks_per_launch,
            shared_bytes_per_block=plan.shared_bytes_per_block,
            unrolled=config.unroll,
            divergence_free=divergence_free,
            useful_fraction=1.0,
            overlap_stores=config.interleave_copy_out or not config.use_shared_memory,
        )
        return ExecutionEstimate(counters=counters, launch=launch, tile_counts=tiles)

    # -- traffic models ------------------------------------------------------------------------

    def _shared_memory_traffic(
        self,
        counters: PerformanceCounters,
        tiles: TileCounts,
        updates: float,
        loads_after_reuse: float,
    ) -> None:
        """Configurations (b)-(f): explicit staging through shared memory."""
        config = self.config
        plan = self.plan
        total_tiles = tiles.total_tiles

        loaded_elements = float(plan.loads_per_tile) * total_tiles
        counters.gld_instructions = loaded_elements
        counters.requested_global_bytes = loaded_elements * 4.0

        transferred = 0.0
        for footprint in plan.footprints:
            row_elements = footprint.innermost_row_elements
            if config.inter_tile_reuse != "none" and len(footprint.extents) > 1:
                row_elements = min(row_elements, self.tiling.sizes.widths[-1])
            rows_per_tile = (
                footprint.elements * footprint.versions / footprint.innermost_row_elements
            )
            row_bytes = row_elements * 4
            row_transactions = self.coalescing.row_transactions(
                row_bytes, aligned=config.align_loads
            )
            transferred += (
                rows_per_tile
                * row_transactions
                * self.device.dram_transaction_bytes
                * total_tiles
            )
        counters.transferred_global_bytes = transferred
        counters.dram_read_transactions = transferred / self.device.dram_transaction_bytes
        counters.l2_read_transactions = 0.8 * counters.dram_read_transactions

        # Shared memory traffic: the core loop's loads and stores, the copy-in
        # stores, and (dynamic reuse only) the internal relocation copies.
        warp = self.device.warp_size
        core_requests = updates * loads_after_reuse / warp
        replay = 1.0
        if config.inter_tile_reuse == "static":
            # The static global->shared mapping strides across banks
            # (Section 4.2.2 / Table 5 row (e)).  Replayed shared accesses also
            # occupy issue slots, which is what makes (e) lose to (f).
            replay = 2.0
            counters.instructions += (replay - 1.0) * updates * loads_after_reuse
        counters.shared_load_requests = core_requests
        counters.shared_load_transactions = core_requests * replay
        counters.shared_store_requests = (
            updates / warp + counters.gld_instructions / warp
        )
        if config.inter_tile_reuse == "dynamic":
            internal = float(plan.internal_copy_elements) * total_tiles / warp
            counters.shared_load_requests += internal
            counters.shared_load_transactions += internal
            counters.shared_store_requests += internal

    def _global_only_traffic(
        self,
        counters: PerformanceCounters,
        tiles: TileCounts,
        updates: float,
        reads_per_point: float,
    ) -> None:
        """Configuration (a): all operands fetched through the caches."""
        counters.gld_instructions = updates * reads_per_point
        counters.requested_global_bytes = counters.gld_instructions * 4.0

        # The hardware caches capture the intra-tile reuse, so the compulsory
        # DRAM traffic is roughly the tile footprint, as with explicit shared
        # memory, but fetched through unaligned, partially-used cache lines.
        transferred = 0.0
        for footprint in self.plan.footprints:
            rows_per_tile = (
                footprint.elements * footprint.versions / footprint.innermost_row_elements
            )
            row_bytes = footprint.innermost_row_elements * 4
            row_transactions = self.coalescing.row_transactions(row_bytes, aligned=False)
            transferred += (
                rows_per_tile
                * row_transactions
                * self.device.dram_transaction_bytes
                * tiles.total_tiles
            )
        counters.transferred_global_bytes = transferred
        counters.dram_read_transactions = transferred / self.device.dram_transaction_bytes

        # Every warp touches one L2 line per distinct row of its read set; the
        # L1 is too small for the tile footprint, so these land in L2.
        distinct_rows = self._distinct_read_rows()
        line_transactions = self.device.cache_line_bytes / self.device.dram_transaction_bytes
        counters.l2_read_transactions = (
            updates / self.device.warp_size * distinct_rows * line_transactions
        )
        counters.shared_load_requests = 0.0
        counters.shared_load_transactions = 0.0
        counters.shared_store_requests = 0.0

        # Cache-served operands cannot be batched the way a cooperative
        # shared-memory copy can: on Fermi the LSU sustains roughly one global
        # load per four ALU issue slots, so every global load instruction of
        # the compute loop occupies extra issue bandwidth.  This is the main
        # reason configuration (a) loses to the shared-memory configurations
        # even though its DRAM traffic is similar (Table 4/5 row (a)).
        counters.instructions += 3.0 * counters.gld_instructions

    def _distinct_read_rows(self) -> float:
        """Average number of distinct (non-innermost) rows read per point."""
        total = 0
        for statement in self.program.statements:
            rows = {read.offsets[:-1] for read in statement.unique_reads}
            total += len(rows)
        return total / len(self.program.statements)

    def _threads_per_block(self) -> int:
        """Thread-block size mirroring the paper's choices (e.g. 1x10x32)."""
        widths = self.tiling.sizes.widths
        if len(widths) == 1:
            return max(32, min(256, self.tiling.shape.max_width()))
        threads = max(32, min(64, _round_to_warp(widths[-1])))
        for width in widths[1:-1]:
            threads *= max(1, min(16, width))
        return min(threads, self.device.max_threads_per_block)


def _round_to_warp(value: int, warp: int = 32) -> int:
    if value <= warp:
        return warp
    return (value // warp) * warp

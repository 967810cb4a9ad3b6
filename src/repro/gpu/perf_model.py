"""Analytic GPU performance model.

The model converts counted quantities (flops, DRAM/L2/shared traffic, kernel
launches, host transfers) into an execution-time estimate using a
roofline-style formulation: each kernel's time is the maximum of its
compute-limited, DRAM-limited, L2-limited and shared-memory-limited times,
plus launch overhead; host<->device transfers are added once (the paper's
timings include them).

This is the substitution for the real GTX 470 / NVS 5200M measurements: the
inputs are *counted* from the generated schedules and code (they are the same
quantities nvprof reports in Table 5), and the conversion into time uses only
public architectural parameters, so relative comparisons between compilers
reflect genuine differences in generated-code behaviour rather than tuned
constants.
"""

from __future__ import annotations

from repro._record import dataclass, field
from repro.gpu.counters import PerformanceCounters
from repro.gpu.device import GPUDevice
from repro.gpu.memory import SharedMemoryModel


@dataclass(frozen=True)
class LaunchConfiguration:
    """Execution configuration the performance model needs besides counters."""

    threads_per_block: int = 256
    blocks: int = 1024
    shared_bytes_per_block: int = 0
    unrolled: bool = True
    divergence_free: bool = True
    useful_fraction: float = 1.0   # fraction of computed updates that are not redundant
    overlap_stores: bool = True    # Section 4.2.1: copy-out interleaved with compute

    def __post_init__(self) -> None:
        if self.threads_per_block <= 0 or self.blocks <= 0:
            raise ValueError("threads_per_block and blocks must be positive")
        if not 0.0 < self.useful_fraction <= 1.0:
            raise ValueError("useful_fraction must be in (0, 1]")


@dataclass
class PerformanceReport:
    """Outcome of a performance estimation."""

    device_name: str
    total_time_s: float
    kernel_time_s: float
    transfer_time_s: float
    launch_time_s: float
    compute_time_s: float
    dram_time_s: float
    l2_time_s: float
    shared_time_s: float
    gflops: float
    gstencils_per_second: float
    bound_by: str
    occupancy: float
    counters: PerformanceCounters = field(repr=False, default_factory=PerformanceCounters)

    def summary(self) -> str:
        return (
            f"[{self.device_name}] {self.gstencils_per_second:.2f} GStencils/s, "
            f"{self.gflops:.1f} GFLOPS, {self.total_time_s * 1e3:.1f} ms "
            f"(bound by {self.bound_by}, occupancy {self.occupancy:.2f})"
        )


class PerformanceModel:
    """Roofline-style analytic performance model for one device."""

    # Fermi SMs can host at most 1536 threads; used for the occupancy estimate.
    MAX_THREADS_PER_SM = 1536
    # Instruction-efficiency factors: straight-line unrolled code issues almost
    # only useful instructions, rolled loops spend a sizeable fraction of their
    # issue slots on address computation and control flow.
    UNROLLED_ISSUE_EFFICIENCY = 0.85
    ROLLED_ISSUE_EFFICIENCY = 0.55
    DIVERGENCE_PENALTY = 0.70

    def __init__(self, device: GPUDevice) -> None:
        self.device = device
        self.shared_model = SharedMemoryModel(device)

    # -- occupancy ---------------------------------------------------------------------

    def occupancy(self, launch: LaunchConfiguration) -> float:
        """Fraction of the SM thread capacity kept busy by the launch."""
        device = self.device
        blocks_by_shared = self.shared_model.occupancy_limit(launch.shared_bytes_per_block)
        blocks_by_threads = max(
            1, self.MAX_THREADS_PER_SM // max(1, launch.threads_per_block)
        )
        resident_blocks = min(8, blocks_by_shared, blocks_by_threads)
        resident_threads = resident_blocks * launch.threads_per_block
        thread_occupancy = min(1.0, resident_threads / self.MAX_THREADS_PER_SM)
        # A grid smaller than the machine cannot fill it.
        fill = min(1.0, launch.blocks / (device.sm_count * resident_blocks))
        return max(0.05, thread_occupancy * fill)

    # -- time components ----------------------------------------------------------------

    def compute_time(self, counters: PerformanceCounters, launch: LaunchConfiguration) -> float:
        """Time limited by arithmetic and instruction issue.

        Two ceilings apply: the floating point throughput (for the flops) and
        the overall instruction issue rate (one instruction per core per
        cycle), which also covers loads, address arithmetic and control flow.
        The larger of the two is the compute-limited time.
        """
        issue_efficiency = (
            self.UNROLLED_ISSUE_EFFICIENCY if launch.unrolled else self.ROLLED_ISSUE_EFFICIENCY
        )
        if not launch.divergence_free:
            issue_efficiency *= self.DIVERGENCE_PENALTY
        # Straight-line unrolled code exposes enough instruction-level
        # parallelism for a few resident warps to keep the pipelines busy, so
        # low occupancy hurts it much less than rolled loopy code.
        ilp_bonus = 0.35 if launch.unrolled else 0.10
        occupancy = min(1.0, self.occupancy(launch) + ilp_bonus)
        flop_rate = self.device.peak_sp_gflops * 1e9 * issue_efficiency * occupancy
        issue_rate = (
            self.device.cuda_cores
            * self.device.shader_clock_ghz
            * 1e9
            * issue_efficiency
            * occupancy
        )
        if flop_rate <= 0 or issue_rate <= 0:
            return float("inf")
        flop_time = counters.flops / flop_rate
        instruction_time = counters.instructions / issue_rate
        return max(flop_time, instruction_time)

    def dram_time(self, counters: PerformanceCounters, include_writes: bool = True) -> float:
        transactions = counters.dram_read_transactions
        if include_writes:
            transactions += counters.dram_write_transactions
        bytes_moved = transactions * self.device.dram_transaction_bytes
        return bytes_moved / (self.device.dram_bandwidth_gbs * 1e9)

    def dram_write_time(self, counters: PerformanceCounters) -> float:
        bytes_moved = counters.dram_write_transactions * self.device.dram_transaction_bytes
        return bytes_moved / (self.device.dram_bandwidth_gbs * 1e9)

    def l2_time(self, counters: PerformanceCounters) -> float:
        bytes_moved = counters.l2_read_transactions * self.device.dram_transaction_bytes
        return bytes_moved / (self.device.l2_bandwidth_gbs * 1e9)

    def shared_time(self, counters: PerformanceCounters) -> float:
        transactions = counters.shared_load_transactions + counters.shared_store_requests
        bytes_moved = transactions * self.device.warp_size * 4
        return bytes_moved / (self.device.peak_shared_bandwidth_gbs * 1e9)

    def launch_time(self, counters: PerformanceCounters) -> float:
        return counters.kernel_launches * self.device.kernel_launch_overhead_us * 1e-6

    def transfer_time(self, counters: PerformanceCounters) -> float:
        return counters.host_device_bytes / (self.device.pcie_bandwidth_gbs * 1e9)

    # -- the full estimate ------------------------------------------------------------------

    def estimate(
        self,
        counters: PerformanceCounters,
        launch: LaunchConfiguration,
    ) -> PerformanceReport:
        """Estimate execution time and throughput for one compiled program."""
        compute = self.compute_time(counters, launch)
        dram = self.dram_time(counters, include_writes=launch.overlap_stores)
        l2 = self.l2_time(counters)
        shared = self.shared_time(counters)
        launch_overhead = self.launch_time(counters)
        transfer = self.transfer_time(counters)

        components = {
            "compute": compute,
            "dram": dram,
            "l2": l2,
            "shared memory": shared,
        }
        bound_by = max(components, key=components.get)
        kernel_time = max(components.values())
        if not launch.overlap_stores:
            # A separate copy-out phase serialises the global stores behind the
            # computation instead of hiding them (Section 4.2.1).
            kernel_time += self.dram_write_time(counters)
        total = kernel_time + launch_overhead + transfer

        useful_updates = counters.stencil_updates
        useful_flops = counters.flops * launch.useful_fraction
        gflops = useful_flops / total / 1e9 if total > 0 else 0.0
        gstencils = useful_updates / total / 1e9 if total > 0 else 0.0

        return PerformanceReport(
            device_name=self.device.name,
            total_time_s=total,
            kernel_time_s=kernel_time,
            transfer_time_s=transfer,
            launch_time_s=launch_overhead,
            compute_time_s=compute,
            dram_time_s=dram,
            l2_time_s=l2,
            shared_time_s=shared,
            gflops=gflops,
            gstencils_per_second=gstencils,
            bound_by=bound_by,
            occupancy=self.occupancy(launch),
            counters=counters,
        )

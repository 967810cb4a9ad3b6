"""GPU device descriptions.

The two devices are the ones used in the paper's evaluation (Section 6):

* **GeForce GTX 470** — a desktop Fermi part (14 SMs, 448 CUDA cores,
  133.9 GB/s GDDR5);
* **NVS 5200M** — a mobile Fermi part (2 SMs, 96 CUDA cores, 14.4 GB/s DDR3).

Only parameters that the analytic performance model actually uses are stored;
they are taken from the public NVIDIA specifications of the two boards.
"""

from __future__ import annotations

from repro._record import dataclass


@dataclass(frozen=True)
class GPUDevice:
    """Architectural parameters of a CUDA GPU used by the performance model."""

    name: str
    sm_count: int
    cuda_cores: int
    shader_clock_ghz: float
    dram_bandwidth_gbs: float
    l2_bandwidth_gbs: float
    shared_bytes_per_cycle_per_sm: int
    shared_memory_per_sm: int
    l1_cache_per_sm: int
    l2_cache_bytes: int
    warp_size: int
    max_threads_per_block: int
    max_blocks: int
    dram_transaction_bytes: int
    cache_line_bytes: int
    kernel_launch_overhead_us: float
    pcie_bandwidth_gbs: float
    compute_capability: str

    # -- derived quantities -----------------------------------------------------------

    @property
    def peak_sp_gflops(self) -> float:
        """Peak single-precision GFLOP/s (2 flops per core per shader cycle)."""
        return 2.0 * self.cuda_cores * self.shader_clock_ghz

    @property
    def peak_shared_bandwidth_gbs(self) -> float:
        """Aggregate shared-memory bandwidth across all SMs in GB/s."""
        return (
            self.shared_bytes_per_cycle_per_sm
            * self.sm_count
            * self.shader_clock_ghz / 2.0  # banks run at the core (half-shader) clock
        )

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.cuda_cores} cores @ {self.shader_clock_ghz} GHz, "
            f"{self.peak_sp_gflops:.0f} GFLOP/s, {self.dram_bandwidth_gbs} GB/s DRAM"
        )


GTX470 = GPUDevice(
    name="GTX 470",
    sm_count=14,
    cuda_cores=448,
    shader_clock_ghz=1.215,
    dram_bandwidth_gbs=133.9,
    l2_bandwidth_gbs=300.0,
    shared_bytes_per_cycle_per_sm=64,
    shared_memory_per_sm=48 * 1024,
    l1_cache_per_sm=16 * 1024,
    l2_cache_bytes=640 * 1024,
    warp_size=32,
    max_threads_per_block=1024,
    max_blocks=65535,
    dram_transaction_bytes=32,
    cache_line_bytes=128,
    kernel_launch_overhead_us=8.0,
    pcie_bandwidth_gbs=5.5,
    compute_capability="2.0",
)

NVS5200M = GPUDevice(
    name="NVS 5200M",
    sm_count=2,
    cuda_cores=96,
    shader_clock_ghz=1.344,
    dram_bandwidth_gbs=14.4,
    l2_bandwidth_gbs=40.0,
    shared_bytes_per_cycle_per_sm=64,
    shared_memory_per_sm=48 * 1024,
    l1_cache_per_sm=16 * 1024,
    l2_cache_bytes=128 * 1024,
    warp_size=32,
    max_threads_per_block=1024,
    max_blocks=65535,
    dram_transaction_bytes=32,
    cache_line_bytes=128,
    kernel_launch_overhead_us=10.0,
    pcie_bandwidth_gbs=2.5,
    compute_capability="2.1",
)

_DEVICES = {
    "gtx470": GTX470,
    "gtx 470": GTX470,
    "nvs5200": NVS5200M,
    "nvs 5200": NVS5200M,
    "nvs5200m": NVS5200M,
}


def get_device(name: str) -> GPUDevice:
    """Look up a device by (case/space insensitive) name."""
    key = name.strip().lower()
    if key in _DEVICES:
        return _DEVICES[key]
    known = ", ".join(device.name.replace(" ", "").lower() for device in list_devices())
    raise KeyError(f"unknown device {name!r}; known: {known}")


def list_devices() -> list[GPUDevice]:
    """The devices used in the paper's evaluation."""
    return [GTX470, NVS5200M]

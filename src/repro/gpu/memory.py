"""Memory-system model: global-memory coalescing and shared-memory capacity.

The model captures the effects the paper's Section 4.2/6.2 optimisations are
about:

* **coalescing / alignment** — a warp's 32 consecutive 4-byte accesses are
  served by whole cache lines; if the first element of a row is not aligned to
  a cache-line boundary, every row costs one extra transaction and the global
  load efficiency drops accordingly (configurations (a)–(d) of Table 4);
* **partial lines at tile borders** — footprint rows whose length is not a
  multiple of the cache line waste the remainder of the line unless loads are
  restricted to full rows (the inter-tile reuse configurations (e)/(f) reach
  100% efficiency this way);
* **shared-memory capacity** — whether a block's shared allocation fits an
  SM, and how many such blocks can be resident at once.  (The bank-conflict
  replay of the static inter-tile reuse mapping of Section 4.2.2, the
  "shared loads per request" column of Table 5, is charged by
  :mod:`repro.codegen.analysis`.)
"""

from __future__ import annotations

from repro._record import dataclass
from repro.gpu.device import GPUDevice


@dataclass(frozen=True)
class CoalescingModel:
    """Transaction-level model of warp accesses to global memory."""

    device: GPUDevice

    def row_transactions(self, row_bytes: int, aligned: bool) -> int:
        """DRAM transactions needed to fetch one contiguous row of a footprint.

        ``aligned`` states whether the first byte of the row sits on a
        cache-line boundary (Section 4.2.3 arranges this by translating the
        tile origins).
        """
        line = self.device.cache_line_bytes
        if row_bytes <= 0:
            return 0
        lines = (row_bytes + line - 1) // line
        if not aligned and row_bytes % line != 0:
            lines += 1
        elif not aligned:
            lines += 1
        transactions_per_line = line // self.device.dram_transaction_bytes
        return lines * transactions_per_line


@dataclass(frozen=True)
class SharedMemoryModel:
    """Capacity model of shared memory: allocation fit and occupancy."""

    device: GPUDevice

    def fits(self, bytes_needed: int) -> bool:
        """Whether a per-block shared allocation fits the SM's shared memory."""
        return bytes_needed <= self.device.shared_memory_per_sm

    def occupancy_limit(self, bytes_per_block: int) -> int:
        """How many blocks can be resident per SM given their shared usage."""
        if bytes_per_block <= 0:
            return 8
        return max(1, min(8, self.device.shared_memory_per_sm // bytes_per_block))

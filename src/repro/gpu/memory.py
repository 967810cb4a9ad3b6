"""Memory-system model: global-memory coalescing and shared-memory banks.

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
* **shared-memory bank conflicts** — the static inter-tile reuse mapping of
  Section 4.2.2 places the same global element at a fixed shared location,
  which makes the stencil's shared accesses stride across banks and double the
  replay rate (the "shared loads per request" column of Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def row_efficiency(self, useful_bytes: int, row_bytes: int, aligned: bool) -> float:
        """Fraction of transferred bytes that were actually requested."""
        transactions = self.row_transactions(row_bytes, aligned)
        transferred = transactions * self.device.dram_transaction_bytes
        if transferred <= 0:
            return 1.0
        return min(1.0, useful_bytes / transferred)


@dataclass(frozen=True)
class SharedMemoryModel:
    """Bank-conflict model of shared-memory accesses."""

    device: GPUDevice
    banks: int = 32

    def load_replay_factor(self, access_stride: int) -> float:
        """Average transactions per shared-load request for a given stride.

        Stride 1 (and any stride coprime with the number of banks) is
        conflict free; an even stride of ``s`` makes ``gcd(s, banks)`` threads
        hit the same bank, multiplying the replay rate accordingly.
        """
        from math import gcd

        if access_stride <= 0:
            return 1.0
        conflict = gcd(access_stride, self.banks)
        return float(max(1, conflict))

    def fits(self, bytes_needed: int) -> bool:
        """Whether a per-block shared allocation fits the SM's shared memory."""
        return bytes_needed <= self.device.shared_memory_per_sm

    def occupancy_limit(self, bytes_per_block: int) -> int:
        """How many blocks can be resident per SM given their shared usage."""
        if bytes_per_block <= 0:
            return 8
        return max(1, min(8, self.device.shared_memory_per_sm // bytes_per_block))

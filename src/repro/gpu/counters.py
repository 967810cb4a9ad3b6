"""Performance counters (the nvprof counters reported in Table 5).

The counters mirror the columns of Table 5 of the paper:

* ``gld_instructions`` — 32-bit global load instructions executed;
* ``dram_read_transactions`` — 32-byte read transactions that reach DRAM;
* ``l2_read_transactions`` — read transactions served by (or passing through)
  the L2 cache;
* ``shared_load_transactions`` / ``shared_load_requests`` — whose ratio is the
  "shared loads per request" column (1.0 means conflict-free, 2.0 means every
  request is replayed once because of bank conflicts);
* ``gld_efficiency`` — ratio of requested to transferred global-memory bytes.

Additional fields (stores, flops, launches, barriers) are tracked because the
performance model needs them.
"""

from __future__ import annotations

from repro._record import dataclass, fields


@dataclass
class PerformanceCounters:
    """Counter values accumulated by the simulator or the analytic model."""

    gld_instructions: float = 0.0
    gst_instructions: float = 0.0
    dram_read_transactions: float = 0.0
    dram_write_transactions: float = 0.0
    l2_read_transactions: float = 0.0
    shared_load_requests: float = 0.0
    shared_load_transactions: float = 0.0
    shared_store_requests: float = 0.0
    flops: float = 0.0
    instructions: float = 0.0
    stencil_updates: float = 0.0
    redundant_updates: float = 0.0
    kernel_launches: float = 0.0
    barriers: float = 0.0
    requested_global_bytes: float = 0.0
    transferred_global_bytes: float = 0.0
    host_device_bytes: float = 0.0

    # -- derived metrics -----------------------------------------------------------

    @property
    def gld_efficiency(self) -> float:
        """Global load efficiency (requested / transferred), in [0, 1]."""
        if self.transferred_global_bytes <= 0:
            return 1.0
        return min(1.0, self.requested_global_bytes / self.transferred_global_bytes)

    @property
    def shared_loads_per_request(self) -> float:
        """Bank-conflict replay factor (1.0 = conflict free)."""
        if self.shared_load_requests <= 0:
            return 1.0
        return self.shared_load_transactions / self.shared_load_requests

    # -- combination ----------------------------------------------------------------

    def add(self, other: "PerformanceCounters") -> "PerformanceCounters":
        """Accumulate another counter set into this one (in place)."""
        for item in fields(self):
            setattr(self, item.name, getattr(self, item.name) + getattr(other, item.name))
        return self

    def scaled(self, factor: float) -> "PerformanceCounters":
        """Return a copy with every counter multiplied by ``factor``."""
        result = PerformanceCounters()
        for item in fields(self):
            setattr(result, item.name, getattr(self, item.name) * factor)
        return result

    def as_table5_row(self) -> dict[str, float]:
        """The counters in the units of Table 5 (events × 10⁹, efficiency in %)."""
        return {
            "gld_inst_32bit": self.gld_instructions / 1e9,
            "dram_read_transactions": self.dram_read_transactions / 1e9,
            "l2_read_transactions": self.l2_read_transactions / 1e9,
            "shared_loads_per_request": self.shared_loads_per_request,
            "gld_efficiency_percent": 100.0 * self.gld_efficiency,
        }

    def __str__(self) -> str:
        row = self.as_table5_row()
        return (
            f"gld={row['gld_inst_32bit']:.2f}e9 "
            f"dram={row['dram_read_transactions']:.2f}e9 "
            f"l2={row['l2_read_transactions']:.2f}e9 "
            f"sh/req={row['shared_loads_per_request']:.1f} "
            f"gld_eff={row['gld_efficiency_percent']:.0f}%"
        )

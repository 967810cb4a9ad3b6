"""Thread-level instruction mix of the core computation (Sections 4.3.1/4.3.2).

The paper unrolls the point loops of each full tile into straight-line code
and reuses values that stay "in flight" in registers across neighbouring
unrolled points (Figure 2: the Jacobi 2D core performs only 3 shared loads and
1 shared store for 5 compute instructions because 2 of the 5 operands are
reused from the previous point).

:func:`analyze_core_loop` reproduces that analysis: it computes, per stencil
point of the unrolled inner loop,

* how many shared-memory loads remain after register reuse along the unrolled
  (innermost) dimension,
* how many arithmetic instructions the body needs, and
* how many address/control instructions the surrounding code costs with and
  without unrolling / full-partial separation.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro._record import dataclass
from repro.model.program import StencilProgram, StencilStatement


@dataclass(frozen=True)
class CoreLoopProfile:
    """Per-stencil-point instruction mix of the generated core loop."""

    statement: str
    flops: int
    loads_total: int
    loads_after_reuse: int
    register_reused: int
    shared_stores: int
    address_instructions: float
    control_instructions: float

    @property
    def instructions_per_point(self) -> float:
        """All instructions issued per stencil point (loads, flops, overhead)."""
        return (
            self.flops
            + self.loads_after_reuse
            + self.shared_stores
            + self.address_instructions
            + self.control_instructions
        )

    def __str__(self) -> str:
        return (
            f"{self.statement}: {self.loads_after_reuse} loads "
            f"({self.register_reused} reused), {self.flops} flops, "
            f"{self.shared_stores} store, "
            f"{self.instructions_per_point:.1f} instr/point"
        )


def register_reuse_count(statement: StencilStatement) -> int:
    """Operands of one point already held in registers from the previous point.

    When the innermost loop is unrolled, the value read at offset ``o`` by
    point ``j+1`` is the value read at offset ``o + e_inner`` by point ``j``
    (``e_inner`` the innermost unit vector); if that offset is also in the
    read set, the value is still in a register and needs no load.
    """
    reads = {read.offsets for read in statement.unique_reads}
    reused = 0
    for offsets in reads:
        shifted = (*offsets[:-1], offsets[-1] - 1)
        if shifted in reads:
            reused += 1
    return reused


def analyze_core_loop(
    program: StencilProgram,
    unroll: bool = True,
    separate_full_partial: bool = True,
    use_shared_memory: bool = True,
) -> list[CoreLoopProfile]:
    """Instruction-mix analysis of the core computation of every statement."""
    profiles = []
    for statement in program.statements:
        loads_total = statement.loads
        reused = register_reuse_count(statement) if unroll else 0
        loads_after_reuse = loads_total - reused

        if unroll:
            # Straight-line code with constant offsets: the compiler folds the
            # offsets into the load instructions, leaving a small residue of
            # pointer bumps amortised over the unrolled body.
            address = 0.5 * loads_after_reuse
        else:
            # Rolled loops recompute a multi-dimensional address per access.
            address = 2.0 * loads_total + 2.0

        if separate_full_partial and unroll:
            # Full tiles execute without bounds checks or divergence.
            control = 1.0
        elif separate_full_partial:
            control = 3.0
        else:
            # Generic code guards every access against the domain boundary.
            control = 2.0 + 1.0 * loads_total

        if not use_shared_memory:
            # Global loads carry longer address computations (array descriptors).
            address += 1.0 * loads_after_reuse

        profiles.append(
            CoreLoopProfile(
                statement=statement.name,
                flops=statement.flops,
                loads_total=loads_total,
                loads_after_reuse=loads_after_reuse,
                register_reused=reused,
                shared_stores=1,
                address_instructions=address,
                control_instructions=control,
            )
        )
    return profiles


def average_instructions_per_point(profiles: Sequence[CoreLoopProfile]) -> float:
    """Average instruction count per stencil point across statements."""
    if not profiles:
        return 0.0
    return sum(p.instructions_per_point for p in profiles) / len(profiles)


def average_loads_after_reuse(profiles: Sequence[CoreLoopProfile]) -> float:
    """Average per-point shared loads after register reuse."""
    if not profiles:
        return 0.0
    return sum(p.loads_after_reuse for p in profiles) / len(profiles)

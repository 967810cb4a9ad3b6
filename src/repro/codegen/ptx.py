"""Pseudo-PTX emission for the unrolled core computation (Figure 2).

Figure 2 of the paper shows the PTX of one point of the tuned Jacobi 2D core:
three shared loads, five arithmetic instructions and one shared store, with
two of the five operands reused from registers of the previously unrolled
point.  :func:`emit_core_ptx` regenerates an equivalent instruction sequence
for any stencil from the register-reuse analysis of
:mod:`repro.codegen.kernel_ir`, so the benchmark for Figure 2 can check the
instruction mix (loads / stores / arithmetic) rather than exact register
numbers.
"""

from __future__ import annotations

from repro._record import dataclass
from repro.codegen.kernel_ir import analyze_core_loop
from repro.model.expr import BinOp, Call, Constant, FieldRead, walk
from repro.model.program import StencilProgram, StencilStatement


@dataclass(frozen=True)
class PtxSummary:
    """Instruction mix of the emitted pseudo-PTX block."""

    shared_loads: int
    shared_stores: int
    arithmetic: int
    registers_reused: int
    text: str

    def __str__(self) -> str:
        return (
            f"PtxSummary(loads={self.shared_loads}, stores={self.shared_stores}, "
            f"arithmetic={self.arithmetic}, reused={self.registers_reused})"
        )


def emit_core_ptx(program: StencilProgram, statement_name: str | None = None) -> PtxSummary:
    """Emit pseudo-PTX for one unrolled point of a statement's core loop."""
    statement = (
        program.statement(statement_name)
        if statement_name is not None
        else program.statements[0]
    )
    profile = next(
        p
        for p in analyze_core_loop(program, unroll=True)
        if p.statement == statement.name
    )

    lines: list[str] = []
    register = 360
    address = 10
    loaded: dict[FieldRead, str] = {}
    reused_reads = _reused_reads(statement)

    # Reused operands are assumed to already live in registers (they were
    # loaded by the previously unrolled point).
    for index, read in enumerate(reused_reads):
        loaded[read] = f"%f{340 + index}"

    arithmetic = 0
    shared_loads = 0
    accumulator: str | None = None
    for read in statement.unique_reads:
        if read in loaded:
            operand = loaded[read]
        else:
            register += 1
            operand = f"%f{register}"
            offset = 7648 + 4 * (sum(read.offsets) + 128 * read.offsets[0])
            lines.append(f"ld.shared.f32 {operand} , [%rd{address} +{offset}];")
            loaded[read] = operand
            shared_loads += 1
        if accumulator is None:
            accumulator = operand
            continue
        register += 1
        result = f"%f{register}"
        lines.append(f"add.f32 {result} , {accumulator} , {operand};")
        accumulator = result
        arithmetic += 1

    # Apply the multiplicative coefficients / intrinsic calls of the body.
    for node in walk(statement.expr):
        if isinstance(node, BinOp) and node.op == "*" and _has_constant_operand(node):
            register += 1
            result = f"%f{register}"
            lines.append(f"mul.f32 {result} , {accumulator} , 0f3E4CCCCD;")
            accumulator = result
            arithmetic += 1
            break
    for node in walk(statement.expr):
        if isinstance(node, Call):
            register += 1
            result = f"%f{register}"
            lines.append(f"sqrt.approx.f32 {result} , {accumulator};")
            accumulator = result
            arithmetic += 1

    lines.append(f"st.shared.f32 [%rd{address} +1624] , {accumulator};")

    return PtxSummary(
        shared_loads=shared_loads,
        shared_stores=1,
        arithmetic=arithmetic,
        registers_reused=profile.register_reused,
        text="\n".join(lines),
    )


def _reused_reads(statement: StencilStatement) -> list[FieldRead]:
    """Reads whose value is still in a register from the previous unrolled point."""
    reads = {read.offsets: read for read in statement.unique_reads}
    reused = []
    for offsets, read in reads.items():
        shifted = (*offsets[:-1], offsets[-1] - 1)
        if shifted in reads:
            reused.append(read)
    return reused


def _has_constant_operand(node: BinOp) -> bool:
    return isinstance(node.lhs, Constant) or isinstance(node.rhs, Constant)

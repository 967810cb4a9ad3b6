"""Lowering from the analyzed C syntax tree to the :mod:`repro.model` IR.

Each innermost assignment becomes a :class:`~repro.model.program.StencilStatement`
whose margins come from its nest's loop bounds and whose body is rebuilt as a
:mod:`repro.model.expr` tree.  Time offsets are computed *relative to the
statement's own write index*: a write to ``A[(t+1)%2]`` reading ``A[t%2]``
and a write to ``A[t]`` reading ``A[t-1]`` both produce ``time_offset == 1``.

Structurally identical subexpressions are hash-consed into one shared
instance, mirroring the common-subexpression convention of
:func:`repro.model.expr.count_flops`: a source body that spells
``(A[t-1][i] - A[t-1][i-1]) * (A[t-1][i] - A[t-1][i-1])`` counts the
difference once, exactly as the hand-built library programs (and the code
generator, which emits it into a register) do.
"""

from __future__ import annotations

from repro.frontend.analyze import AnalyzedStencil, Analyzer, Nest, TimeIndex
from repro.frontend.ast import (
    CArrayRef,
    CAssign,
    CBinary,
    CCall,
    CExpr,
    CName,
    CNumber,
    CProgram,
    CUnary,
)
from repro.frontend.errors import StencilSemanticError
from repro.model.expr import BinOp, Call, Constant, Expr, FieldRead
from repro.model.program import StencilProgram, StencilStatement, within_margins

# Arity of the supported math intrinsics (keys mirror expr._CALL_TABLE).
_INTRINSICS = {
    "sqrtf": 1,
    "sqrt": 1,
    "fabsf": 1,
    "fabs": 1,
    "expf": 1,
    "fminf": 2,
    "fmaxf": 2,
}


class _Interner:
    """Hash-cons structurally equal expression nodes into one instance."""

    def __init__(self) -> None:
        self._cache: dict[Expr, Expr] = {}

    def __call__(self, node: Expr) -> Expr:
        return self._cache.setdefault(node, node)


class _Lowerer:
    def __init__(self, analyzed: AnalyzedStencil) -> None:
        self.analyzed = analyzed
        # Re-use the analyzer's subscript classifiers (and its diagnostics).
        self.classify = Analyzer(
            CProgram(defines=analyzed.defines), analyzed.source, analyzed.filename
        )
        self.intern = _Interner()

    def _error(self, message: str, expr: CExpr | CAssign):
        loc = expr.loc
        raise StencilSemanticError(
            message, self.analyzed.source, loc.line, loc.column, self.analyzed.filename
        )

    # -- statement lowering --------------------------------------------------

    def _write_index(self, assign: CAssign, nest: Nest) -> tuple[str, TimeIndex]:
        target = assign.target
        ndim = len(nest.loops)
        if len(target.subscripts) != ndim + 1:
            self._error(
                f"write to {target.name!r} has {len(target.subscripts)} "
                f"subscripts, expected 1 temporal + {ndim} spatial",
                target,
            )
        write_time = self.classify.time_index(
            target.subscripts[0], self.analyzed.time_var
        )
        for d, (subscript, loop) in enumerate(
            zip(target.subscripts[1:], nest.loops)
        ):
            offset = self.classify.spatial_offset(subscript, loop.var, d)
            if offset != 0:
                self._error(
                    f"stencil statements must write the current point; "
                    f"'{subscript.describe()}' has offset {offset}",
                    subscript,
                )
        return target.name, write_time

    def _read(
        self,
        ref: CArrayRef,
        nest: Nest,
        write_time: TimeIndex,
        target: str,
        written_before: set[str],
    ) -> FieldRead:
        ndim = len(nest.loops)
        if len(ref.subscripts) != ndim + 1:
            self._error(
                f"read of {ref.name!r} has {len(ref.subscripts)} subscripts, "
                f"expected 1 temporal + {ndim} spatial",
                ref,
            )
        read_time = self.classify.time_index(ref.subscripts[0], self.analyzed.time_var)
        if (read_time.modulus is None) != (write_time.modulus is None):
            self._error(
                f"read of {ref.name!r} mixes time indexing styles with the "
                f"write (write uses "
                f"'{write_time.describe(self.analyzed.time_var)}', read uses "
                f"'{read_time.describe(self.analyzed.time_var)}')",
                ref.subscripts[0],
            )
        if read_time.modulus is not None and read_time.modulus != write_time.modulus:
            self._error(
                f"read of {ref.name!r} uses modulus {read_time.modulus} but "
                f"the write uses {write_time.modulus}",
                ref.subscripts[0],
            )
        offset = write_time.shift - read_time.shift
        if offset < 0:
            self._error(
                f"read of {ref.name!r} at time "
                f"'{read_time.describe(self.analyzed.time_var)}' is later than "
                f"the write at "
                f"'{write_time.describe(self.analyzed.time_var)}' (reads from "
                "the future are not causal)",
                ref.subscripts[0],
            )
        if write_time.modulus is not None and offset >= write_time.modulus:
            self._error(
                f"time offset {offset} cannot be expressed with a "
                f"{write_time.modulus}-deep rotating buffer",
                ref.subscripts[0],
            )
        if offset == 0 and ref.name not in written_before:
            hint = (
                "it reads its own statement's output"
                if ref.name == target
                else "no earlier statement in the time loop writes it"
            )
            self._error(
                f"read of {ref.name!r} at the write's own time index, but "
                f"{hint}",
                ref.subscripts[0],
            )
        offsets = []
        for d, (subscript, loop) in enumerate(zip(ref.subscripts[1:], nest.loops)):
            shift = self.classify.spatial_offset(subscript, loop.var, d)
            # The loop's margins are what keeps a read inside the grid.
            lo, hi = loop.lower_margin, loop.upper_margin
            if not within_margins(shift, lo, hi):
                self._error(
                    f"read '{subscript.describe()}' of {ref.name!r} leaves the "
                    f"grid: the loop over {loop.var!r} keeps margins {lo} below "
                    f"and {hi} above, so offsets must lie in [-{lo}, {hi}]",
                    subscript,
                )
            offsets.append(shift)
        return FieldRead(ref.name, tuple(offsets), offset)

    def _expr(
        self,
        expr: CExpr,
        nest: Nest,
        write_time: TimeIndex,
        target: str,
        written_before: set[str],
    ) -> Expr:
        lower = lambda e: self._expr(e, nest, write_time, target, written_before)
        if isinstance(expr, CNumber):
            return self.intern(Constant(float(expr.value)))
        if isinstance(expr, CName):
            if expr.name in self.analyzed.defines:
                return self.intern(Constant(float(self.analyzed.defines[expr.name])))
            self._error(
                f"unknown identifier {expr.name!r} in a statement body "
                "(only array reads, literals, defined constants and intrinsic "
                "calls are allowed)",
                expr,
            )
        if isinstance(expr, CUnary):
            operand = expr.operand
            if isinstance(operand, CNumber):
                return self.intern(Constant(-float(operand.value)))
            return self.intern(
                BinOp("-", self.intern(Constant(0.0)), lower(operand))
            )
        if isinstance(expr, CBinary):
            if expr.op == "%":
                self._error(
                    "'%' is only supported inside time subscripts", expr
                )
            return self.intern(BinOp(expr.op, lower(expr.lhs), lower(expr.rhs)))
        if isinstance(expr, CCall):
            arity = _INTRINSICS.get(expr.name)
            if arity is None:
                supported = ", ".join(sorted(_INTRINSICS))
                self._error(
                    f"unknown function {expr.name!r} (supported intrinsics: "
                    f"{supported})",
                    expr,
                )
            if len(expr.args) != arity:
                self._error(
                    f"{expr.name} takes {arity} argument(s), got {len(expr.args)}",
                    expr,
                )
            args = tuple(lower(arg) for arg in expr.args)
            return self.intern(Call(expr.name, args))
        if isinstance(expr, CArrayRef):
            return self.intern(
                self._read(expr, nest, write_time, target, written_before)
            )
        raise AssertionError(f"unexpected expression node {expr!r}")

    # -- program lowering ----------------------------------------------------

    def lower(
        self,
        sizes: tuple[int, ...],
        time_steps: int,
        name: str | None = None,
        keep_source: bool = True,
    ) -> StencilProgram:
        statements: list[StencilStatement] = []
        written_before: set[str] = set()
        index = 0
        for nest in self.analyzed.nests:
            lower_margin = tuple(loop.lower_margin for loop in nest.loops)
            upper_margin = tuple(loop.upper_margin for loop in nest.loops)
            for assign in nest.assigns:
                target, write_time = self._write_index(assign, nest)
                expr = self._expr(
                    assign.value, nest, write_time, target, written_before
                )
                statements.append(
                    StencilStatement(
                        name=f"S{index}",
                        target=target,
                        expr=expr,
                        lower_margin=lower_margin,
                        upper_margin=upper_margin,
                    )
                )
                written_before.add(target)
                index += 1
        return StencilProgram(
            name=name or self.analyzed.name,
            space_dims=self.analyzed.nests[0].loop_vars,
            sizes=sizes,
            time_steps=time_steps,
            statements=statements,
            source=self.analyzed.source if keep_source else None,
        )


def lower_stencil(
    analyzed: AnalyzedStencil,
    sizes: tuple[int, ...],
    time_steps: int,
    name: str | None = None,
    keep_source: bool = True,
) -> StencilProgram:
    """Lower an analyzed stencil to a :class:`StencilProgram`.

    ``keep_source=False`` drops the original text so
    :meth:`StencilProgram.c_source` regenerates a form that reflects the
    actual (possibly overridden) sizes and time steps.
    """
    return _Lowerer(analyzed).lower(sizes, time_steps, name, keep_source)

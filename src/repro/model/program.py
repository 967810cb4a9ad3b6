"""Executable stencil programs.

A :class:`StencilProgram` is the canonical, analysable description of an
iterative stencil computation: a set of fields over a rectangular grid and an
ordered list of update statements applied at every time step.  It corresponds
to the class of inputs the paper's Section 3.2 accepts — an outer time loop
containing ``k >= 1`` perfect loop nests none of whose inner loops carry
dependences.

The program can execute itself with NumPy (:meth:`StencilProgram.run_reference`)
which provides the ground truth all code generators and the GPU simulator are
validated against.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from repro._record import dataclass
from repro.model.expr import (
    BinOp,
    Call,
    Constant,
    Expr,
    FieldRead,
    count_flops,
    distinct_reads,
    gather_reads,
)

if TYPE_CHECKING:
    import numpy as np


def _figure1_expr(expr: Expr, loop_vars: Sequence[str], time_var: str = "t") -> str:
    """Print an expression in the time-indexed form ``A[t-k][i+1][j]``.

    This is the inverse of what the front end's lowering accepts: a write at
    ``A[t][...]`` reading ``A[t-k][...]`` yields ``time_offset == k``.
    """
    if isinstance(expr, Constant):
        return f"{expr.value}f"
    if isinstance(expr, FieldRead):
        if expr.time_offset == 0:
            time_sub = f"[{time_var}]"
        else:
            time_sub = f"[{time_var}-{expr.time_offset}]"
        subscripts = []
        for name, offset in zip(loop_vars, expr.offsets):
            if offset == 0:
                subscripts.append(f"[{name}]")
            elif offset > 0:
                subscripts.append(f"[{name}+{offset}]")
            else:
                subscripts.append(f"[{name}-{-offset}]")
        return f"{expr.field}{time_sub}{''.join(subscripts)}"
    if isinstance(expr, BinOp):
        lhs = _figure1_expr(expr.lhs, loop_vars, time_var)
        rhs = _figure1_expr(expr.rhs, loop_vars, time_var)
        return f"({lhs} {expr.op} {rhs})"
    if isinstance(expr, Call):
        args = ", ".join(_figure1_expr(a, loop_vars, time_var) for a in expr.args)
        return f"{expr.name}({args})"
    raise TypeError(f"cannot print {type(expr).__name__} as Figure-1 C")


@dataclass(frozen=True)
class Field:
    """A named grid field (array) of single precision floats."""

    name: str
    element_size: int = 4  # bytes; the paper uses single precision throughout

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class StencilStatement:
    """One update statement of the stencil.

    Parameters
    ----------
    name:
        Statement label (``S0``, ``update_ex`` ...).
    target:
        Name of the field written by the statement.
    expr:
        Right-hand side expression over :class:`~repro.model.expr.FieldRead`
        leaves.
    lower_margin / upper_margin:
        Number of boundary layers, per space dimension, that the statement
        does *not* update (Dirichlet boundary).  A classic Jacobi stencil over
        ``i in [1, N-2]`` has margins ``(1, 1)`` on both sides.
    """

    name: str
    target: str
    expr: Expr
    lower_margin: tuple[int, ...]
    upper_margin: tuple[int, ...]

    @property
    def reads(self) -> list[FieldRead]:
        """All reads, duplicates preserved (one per textual occurrence)."""
        return gather_reads(self.expr)

    @property
    def unique_reads(self) -> tuple[FieldRead, ...]:
        """Distinct reads (what must be loaded at least once per point).

        Computed once per statement and cached.
        """
        cached = self.__dict__.get("_unique_reads_cache")
        if cached is None:
            cached = tuple(distinct_reads(self.expr))
            # The record is frozen; stash the memo directly in __dict__,
            # where the record's equality and hash do not look.
            object.__setattr__(self, "_unique_reads_cache", cached)
        return cached

    @property
    def flops(self) -> int:
        """Floating point operations per updated point."""
        return count_flops(self.expr)

    @property
    def loads(self) -> int:
        """Distinct loads per updated point (the "Loads" column of Table 3)."""
        return len(self.unique_reads)

    def max_time_offset(self) -> int:
        return max((r.time_offset for r in self.reads), default=1)

    def spatial_radius(self) -> int:
        """Largest absolute spatial offset used by any read."""
        radius = 0
        for read in self.reads:
            for offset in read.offsets:
                radius = max(radius, abs(offset))
        return radius

    def __getstate__(self) -> dict:
        """Drop the distinct-read memo when pickling."""
        state = self.__dict__.copy()
        state.pop("_unique_reads_cache", None)
        return state


class StencilProgram:
    """An iterative stencil computation over a rectangular grid.

    Parameters
    ----------
    name:
        Program name (used in reports and generated code).
    space_dims:
        Names of the space dimensions, outermost first; the innermost
        dimension is assumed to be the unit-stride dimension (Section 3.6).
    sizes:
        Grid extent along each space dimension.
    time_steps:
        Number of outer time iterations.
    statements:
        Ordered update statements executed within one time iteration.
    fields:
        Optional explicit field list; inferred from the statements otherwise.
    """

    def __init__(
        self,
        name: str,
        space_dims: Sequence[str],
        sizes: Sequence[int],
        time_steps: int,
        statements: Sequence[StencilStatement],
        fields: Sequence[Field] | None = None,
        source: str | None = None,
    ) -> None:
        if len(space_dims) != len(sizes):
            raise ValueError("space_dims and sizes must have the same length")
        if not statements:
            raise ValueError("a stencil program needs at least one statement")
        self.name = name
        self.space_dims = tuple(space_dims)
        self.sizes = tuple(int(s) for s in sizes)
        self.time_steps = int(time_steps)
        self.statements = list(statements)
        self.source = source

        field_names: list[str] = []
        for statement in self.statements:
            if statement.target not in field_names:
                field_names.append(statement.target)
            for read in statement.reads:
                if read.field not in field_names:
                    field_names.append(read.field)
            if len(statement.lower_margin) != len(self.space_dims):
                raise ValueError(
                    f"statement {statement.name}: margin arity does not match grid"
                )
        if fields is None:
            self.fields = {name: Field(name) for name in field_names}
        else:
            self.fields = {f.name: f for f in fields}
            missing = [n for n in field_names if n not in self.fields]
            if missing:
                raise ValueError(f"statements reference undeclared fields {missing}")

    # -- basic queries -------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of space dimensions."""
        return len(self.space_dims)

    @property
    def num_statements(self) -> int:
        return len(self.statements)

    def statement(self, name: str) -> StencilStatement:
        for statement in self.statements:
            if statement.name == name:
                return statement
        raise KeyError(name)

    def max_time_offset(self) -> int:
        return max(s.max_time_offset() for s in self.statements)

    def spatial_radius(self) -> int:
        return max(s.spatial_radius() for s in self.statements)

    def grid_points(self) -> int:
        total = 1
        for size in self.sizes:
            total *= size
        return total

    def interior_points(self, statement: StencilStatement) -> int:
        total = 1
        for size, lo, hi in zip(self.sizes, statement.lower_margin, statement.upper_margin):
            extent = size - lo - hi
            if extent <= 0:
                return 0
            total *= extent
        return total

    def stencil_updates(self, time_steps: int | None = None) -> int:
        """Total number of stencil point updates over the whole run."""
        steps = self.time_steps if time_steps is None else time_steps
        return steps * sum(self.interior_points(s) for s in self.statements)

    def flops_total(self, time_steps: int | None = None) -> int:
        steps = self.time_steps if time_steps is None else time_steps
        return steps * sum(
            self.interior_points(s) * s.flops for s in self.statements
        )

    def data_bytes(self) -> int:
        """Total size of all fields in bytes."""
        return sum(
            self.grid_points() * field.element_size for field in self.fields.values()
        )

    # -- characteristics (Table 3) ------------------------------------------------

    def characteristics(self) -> list[dict[str, int | str]]:
        """Per-statement characteristics as reported in Table 3 of the paper."""
        rows = []
        for statement in self.statements:
            rows.append(
                {
                    "statement": statement.name,
                    "loads": statement.loads,
                    "flops": statement.flops,
                    "data_size": "x".join(str(s) for s in self.sizes),
                    "steps": self.time_steps,
                }
            )
        return rows

    # -- reference execution -------------------------------------------------------

    def initial_state(self, seed: int = 0) -> dict[str, np.ndarray]:
        """Deterministic pseudo-random initial condition for every field."""
        import numpy as np

        rng = np.random.default_rng(seed)
        return {
            name: rng.standard_normal(self.sizes).astype(np.float32)
            for name in self.fields
        }

    def run_reference(
        self,
        initial: Mapping[str, np.ndarray] | None = None,
        time_steps: int | None = None,
        seed: int = 0,
    ) -> dict[str, np.ndarray]:
        """Run the stencil with plain NumPy and return the final field values.

        Semantics: at each time step the statements execute in program order;
        a read with ``time_offset == 0`` sees values already produced earlier
        in the same time step, a read with ``time_offset == k >= 1`` sees the
        field as it was after time step ``t - k`` completed.  Boundary points
        (the declared margins) are never written and keep their initial
        values, i.e. Dirichlet boundary conditions.
        """
        import numpy as np

        steps = self.time_steps if time_steps is None else time_steps
        if initial is None:
            initial = self.initial_state(seed)
        history_depth = max(self.max_time_offset(), 1) + 1
        history: dict[str, deque[np.ndarray]] = {}
        for name in self.fields:
            if name not in initial:
                raise KeyError(f"missing initial value for field {name!r}")
            array = np.array(initial[name], dtype=np.float32)
            if array.shape != self.sizes:
                raise ValueError(
                    f"field {name!r} has shape {array.shape}, expected {self.sizes}"
                )
            history[name] = deque(
                [array.copy() for _ in range(history_depth)], maxlen=history_depth
            )

        for _ in range(steps):
            current = {name: history[name][-1].copy() for name in self.fields}
            for statement in self.statements:
                region = self._interior_slices(statement)
                if any(axis.start >= axis.stop for axis in region):
                    continue  # the margins leave no interior point
                updated = self._evaluate_statement(statement, history, current, region)
                current[statement.target][region] = updated
            for name in self.fields:
                history[name].append(current[name])

        return {name: history[name][-1].copy() for name in self.fields}

    def _interior_slices(self, statement: StencilStatement) -> tuple[slice, ...]:
        slices = []
        for size, lo, hi in zip(self.sizes, statement.lower_margin, statement.upper_margin):
            slices.append(slice(lo, size - hi))
        return tuple(slices)

    def _evaluate_statement(
        self,
        statement: StencilStatement,
        history: Mapping[str, deque],
        current: Mapping[str, np.ndarray],
        region: tuple[slice, ...],
    ) -> np.ndarray:
        import numpy as np

        def read(access: FieldRead) -> np.ndarray:
            if access.time_offset == 0:
                source = current[access.field]
            else:
                source = history[access.field][-access.time_offset]
            shifted = []
            for axis, base in enumerate(region):
                offset = access.offsets[axis]
                shifted.append(slice(base.start + offset, base.stop + offset))
            return source[tuple(shifted)]

        result = statement.expr.evaluate(read)
        return np.asarray(result, dtype=np.float32)

    # -- C source (Figure 1 style) ----------------------------------------------------

    def c_source(self) -> str:
        """Return (or regenerate) a C source form of the program.

        If the program was built by the front end the original source is
        returned; otherwise a Figure-1-style time-indexed loop nest is
        produced.  The regenerated form is accepted by
        :func:`repro.frontend.parse_stencil`, so every program round-trips
        through C source: writes go to ``A[t][i][j]`` and a read with
        ``time_offset == k`` appears as ``A[t-k][i][j]``.
        """
        if self.source is not None:
            return self.source
        depth = max(self.max_time_offset(), 1) + 1
        lines = [f"/* {self.name} */", f"#define T {self.time_steps}"]
        for axis, size in enumerate(self.sizes):
            lines.append(f"#define N{axis} {size}")
        lines.append("")
        extents = "".join(f"[N{axis}]" for axis in range(self.ndim))
        for name in self.fields:
            lines.append(f"float {name}[{depth}]{extents};")
        lines.append("")
        lines.append("for (t = 0; t < T; t++) {")
        for statement in self.statements:
            indent = "  "
            loop_vars = []
            for axis, dim in enumerate(self.space_dims):
                lo = statement.lower_margin[axis]
                hi = statement.upper_margin[axis]
                bound = f"N{axis} - {hi}" if hi else f"N{axis}"
                if axis == self.ndim - 1:
                    lines.append("#pragma ivdep")
                lines.append(
                    f"{indent}for ({dim} = {lo}; {dim} < {bound}; {dim}++)"
                )
                indent += "  "
                loop_vars.append(dim)
            body = _figure1_expr(statement.expr, loop_vars)
            subscripts = "".join(f"[{v}]" for v in loop_vars)
            lines.append(f"{indent}{statement.target}[t]{subscripts} = {body};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"StencilProgram({self.name!r}, dims={self.space_dims}, "
            f"sizes={self.sizes}, steps={self.time_steps}, "
            f"statements={len(self.statements)})"
        )

"""SCoP-style semantic analysis of a parsed stencil (Section 3.2).

The parser accepts any well-formed loop nest; this module checks that the
program actually is a stencil the tool chain supports — an outer time loop
containing one or more *perfectly nested* spatial loop nests whose bounds are
``const`` / ``N - const`` (margins) and whose array subscripts are a
recognised time index followed by ``var ± const`` spatial offsets — and
extracts the structure the lowering needs.  Everything outside that fragment
is rejected with a :class:`~repro.frontend.errors.StencilSemanticError`
pointing at the offending token:

* non-affine subscripts (``A[t][i*i]``, ``A[t][B[i]]``),
* imperfect loop nests (a statement next to a nested loop),
* data-dependent loop bounds (``i < A[0][j]``),
* unrecognised time indices.
"""

from __future__ import annotations

from repro._record import dataclass
from repro.frontend.ast import (
    CArrayRef,
    CAssign,
    CBinary,
    CCall,
    CDecl,
    CExpr,
    CFor,
    CName,
    CNumber,
    CProgram,
    CUnary,
    Location,
)
from repro.frontend.errors import StencilSemanticError


@dataclass(frozen=True)
class TimeIndex:
    """A temporal subscript ``t + shift`` (optionally taken ``% modulus``)."""

    shift: int
    modulus: int | None = None

    def describe(self, time_var: str = "t") -> str:
        if self.shift == 0:
            base = time_var
        elif self.shift > 0:
            base = f"{time_var}+{self.shift}"
        else:
            base = f"{time_var}-{-self.shift}"
        if self.modulus is None:
            return base
        return f"({base})%{self.modulus}"


@dataclass(frozen=True)
class LoopDim:
    """One spatial loop of a nest: ``for (var = lower; var < size - margin)``.

    ``size`` is either the symbolic bound name (``"N0"``) or a concrete
    integer when the source used a literal bound.
    """

    var: str
    lower_margin: int
    size: str | int
    upper_margin: int
    ivdep: bool
    loc: Location


@dataclass(frozen=True)
class Nest:
    """A perfectly nested spatial loop nest and its innermost assignments."""

    loops: tuple[LoopDim, ...]
    assigns: tuple[CAssign, ...]
    loc: Location

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return tuple(loop.var for loop in self.loops)


@dataclass
class AnalyzedStencil:
    """The validated structure of a stencil source file."""

    source: str
    filename: str | None
    name: str
    defines: dict[str, int]
    decls: tuple[CDecl, ...]
    time_var: str
    time_lower: int
    time_upper_symbol: str | None
    time_upper_value: int | None
    time_upper_loc: Location
    nests: tuple[Nest, ...]

    @property
    def ndim(self) -> int:
        return len(self.nests[0].loops)


class Analyzer:
    """Check and summarise one parsed program."""

    def __init__(self, program: CProgram, source: str, filename: str | None = None):
        self.program = program
        self.source = source
        self.filename = filename
        self.defines = dict(program.defines)

    def _error(self, message: str, loc: Location):
        raise StencilSemanticError(
            message, self.source, loc.line, loc.column, self.filename
        )

    # -- small expression classifiers ---------------------------------------

    def _const_int(self, expr: CExpr) -> int | None:
        """Evaluate an expression of integer literals and defined names."""
        if isinstance(expr, CNumber) and not expr.is_float:
            return int(expr.value)
        if isinstance(expr, CName) and expr.name in self.defines:
            return self.defines[expr.name]
        if isinstance(expr, CUnary) and expr.op == "-":
            inner = self._const_int(expr.operand)
            return None if inner is None else -inner
        return None

    def _contains_array_ref(self, expr: CExpr) -> CArrayRef | None:
        if isinstance(expr, CArrayRef):
            return expr
        if isinstance(expr, CBinary):
            return self._contains_array_ref(expr.lhs) or self._contains_array_ref(
                expr.rhs
            )
        if isinstance(expr, CUnary):
            return self._contains_array_ref(expr.operand)
        if isinstance(expr, CCall):
            for arg in expr.args:
                found = self._contains_array_ref(arg)
                if found:
                    return found
        return None

    # -- loop bounds ---------------------------------------------------------

    def _lower_margin(self, expr: CExpr) -> int:
        value = self._const_int(expr)
        if value is None:
            if self._contains_array_ref(expr):
                self._error(
                    f"data-dependent loop bound '{expr.describe()}'", expr.loc
                )
            self._error(
                f"loop lower bound must be a constant, got '{expr.describe()}'",
                expr.loc,
            )
        if value < 0:
            self._error("loop lower bound must be non-negative", expr.loc)
        return value

    def _upper_bound(self, expr: CExpr) -> tuple[str | int, int]:
        """Classify an upper bound as ``(size, margin)`` from ``size - margin``."""
        if self._contains_array_ref(expr):
            self._error(f"data-dependent loop bound '{expr.describe()}'", expr.loc)
        if isinstance(expr, CName):
            return expr.name, 0
        if isinstance(expr, CNumber) and not expr.is_float:
            return int(expr.value), 0
        if isinstance(expr, CBinary) and expr.op == "-":
            margin = self._const_int(expr.rhs)
            if margin is not None and margin >= 0:
                if isinstance(expr.lhs, CName) and expr.lhs.name not in self.defines:
                    return expr.lhs.name, margin
                size = self._const_int(expr.lhs)
                if size is not None:
                    return size, margin
        self._error(
            f"unsupported loop bound '{expr.describe()}' "
            "(expected 'N' or 'N - c' with constant c)",
            expr.loc,
        )
        raise AssertionError("unreachable")

    # -- subscripts ----------------------------------------------------------

    def time_index(self, expr: CExpr, time_var: str) -> TimeIndex:
        """Classify a temporal subscript: ``t``, ``t±c`` or ``(t±c)%m``."""
        if isinstance(expr, CBinary) and expr.op == "%":
            modulus = self._const_int(expr.rhs)
            if modulus is None or modulus < 2:
                self._error(
                    f"time subscript modulus must be a constant >= 2, "
                    f"got '{expr.rhs.describe()}'",
                    expr.rhs.loc,
                )
            base = self.time_index(expr.lhs, time_var)
            if base.modulus is not None:
                self._error("nested '%' in time subscript", expr.loc)
            return TimeIndex(base.shift, modulus)
        if isinstance(expr, CName):
            if expr.name == time_var:
                return TimeIndex(0)
            self._error(
                f"time subscript uses {expr.name!r} but the time loop "
                f"variable is {time_var!r}",
                expr.loc,
            )
        if isinstance(expr, CBinary) and expr.op in ("+", "-"):
            shift = self._const_int(expr.rhs)
            if (
                shift is not None
                and isinstance(expr.lhs, CName)
                and expr.lhs.name == time_var
            ):
                return TimeIndex(shift if expr.op == "+" else -shift)
            # also accept 'c + t'
            shift = self._const_int(expr.lhs)
            if (
                shift is not None
                and expr.op == "+"
                and isinstance(expr.rhs, CName)
                and expr.rhs.name == time_var
            ):
                return TimeIndex(shift)
        self._error(
            f"unrecognised time subscript '{expr.describe()}' "
            f"(expected '{time_var}', '{time_var}-c' or '({time_var}+c)%m')",
            expr.loc,
        )
        raise AssertionError("unreachable")

    def spatial_offset(self, expr: CExpr, var: str, dim: int) -> int:
        """Classify a spatial subscript as ``var ± const``."""
        if isinstance(expr, CName):
            if expr.name == var:
                return 0
            self._error(
                f"subscript of dimension {dim} uses {expr.name!r} but the "
                f"loop variable for that dimension is {var!r}",
                expr.loc,
            )
        if isinstance(expr, CBinary) and expr.op in ("+", "-"):
            offset = self._const_int(expr.rhs)
            if (
                offset is not None
                and isinstance(expr.lhs, CName)
                and expr.lhs.name == var
            ):
                return offset if expr.op == "+" else -offset
            offset = self._const_int(expr.lhs)
            if (
                offset is not None
                and expr.op == "+"
                and isinstance(expr.rhs, CName)
                and expr.rhs.name == var
            ):
                return offset
        array = self._contains_array_ref(expr)
        if array is not None:
            self._error(
                f"non-affine subscript '{expr.describe()}' "
                "(indices may not depend on array contents)",
                expr.loc,
            )
        self._error(
            f"non-affine subscript '{expr.describe()}' "
            f"(expected '{var}' or '{var} ± c' with constant c)",
            expr.loc,
        )
        raise AssertionError("unreachable")

    # -- nest structure ------------------------------------------------------

    def _collect_nest(self, outer: CFor) -> Nest:
        loops: list[LoopDim] = []
        node = outer
        while True:
            size, upper_margin = self._upper_bound(node.upper)
            loops.append(
                LoopDim(
                    var=node.var,
                    lower_margin=self._lower_margin(node.lower),
                    size=size,
                    upper_margin=upper_margin,
                    ivdep=node.ivdep,
                    loc=node.loc,
                )
            )
            fors = [item for item in node.body if isinstance(item, CFor)]
            assigns = [item for item in node.body if isinstance(item, CAssign)]
            if fors and assigns:
                self._error(
                    "imperfect loop nest: statement at the same depth as a "
                    "nested loop (split it into its own loop nest under the "
                    "time loop)",
                    assigns[0].loc,
                )
            if len(fors) > 1:
                self._error(
                    "imperfect loop nest: two loops at the same depth (split "
                    "them into separate loop nests under the time loop)",
                    fors[1].loc,
                )
            if fors:
                node = fors[0]
                continue
            if not assigns:
                self._error("empty innermost loop body", node.loc)
            seen_vars = [loop.var for loop in loops]
            if len(set(seen_vars)) != len(seen_vars):
                self._error(
                    f"duplicate loop variable in nest {seen_vars}", outer.loc
                )
            return Nest(loops=tuple(loops), assigns=tuple(assigns), loc=outer.loc)

    def analyze(self) -> AnalyzedStencil:
        time_loop = self.program.time_loop
        assert time_loop is not None  # guaranteed by the parser
        time_lower = self._lower_margin(time_loop.lower)

        upper = time_loop.upper
        upper_symbol: str | None = None
        upper_value = self._const_int(upper)
        if upper_value is None:
            if isinstance(upper, CName):
                upper_symbol = upper.name
            else:
                if self._contains_array_ref(upper):
                    self._error(
                        f"data-dependent time loop bound '{upper.describe()}'",
                        upper.loc,
                    )
                self._error(
                    f"time loop bound must be a constant or a single symbol, "
                    f"got '{upper.describe()}'",
                    upper.loc,
                )

        nests: list[Nest] = []
        for item in time_loop.body:
            if isinstance(item, CFor):
                nests.append(self._collect_nest(item))
            elif isinstance(item, CAssign):
                self._error(
                    "statement directly inside the time loop (every statement "
                    "must sit in a spatial loop nest)",
                    item.loc,
                )
            else:  # pragma: no cover - parser only produces CFor/CAssign
                raise AssertionError(f"unexpected node {item!r}")
        if not nests:
            self._error("the time loop contains no spatial loop nest", time_loop.loc)
        ndim = len(nests[0].loops)
        for nest in nests[1:]:
            if len(nest.loops) != ndim:
                self._error(
                    f"loop nests disagree on dimensionality: first nest has "
                    f"{ndim} spatial loops, this one has {len(nest.loops)}",
                    nest.loc,
                )
        return AnalyzedStencil(
            source=self.source,
            filename=self.filename,
            name=self.program.name_hint or "stencil",
            defines=self.defines,
            decls=self.program.decls,
            time_var=time_loop.var,
            time_lower=time_lower,
            time_upper_symbol=upper_symbol,
            time_upper_value=upper_value,
            time_upper_loc=upper.loc,
            nests=tuple(nests),
        )


def analyze_program(
    program: CProgram, source: str, filename: str | None = None
) -> AnalyzedStencil:
    """Run semantic analysis on a parsed program."""
    return Analyzer(program, source, filename).analyze()


# -- extent resolution ---------------------------------------------------------


def resolve_extents(
    analyzed: AnalyzedStencil,
    sizes: tuple[int, ...] | None = None,
    time_steps: int | None = None,
) -> tuple[tuple[int, ...], int]:
    """Resolve symbolic grid sizes and the number of time steps.

    Resolution order for each spatial dimension: the explicit ``sizes``
    argument, a ``#define`` for the bound symbol, a literal loop bound, or a
    numeric extent in an array declaration (the last ``ndim`` extents of a
    declaration with ``ndim + 1`` extents).  The same symbol used for two
    dimensions must resolve to the same extent.
    """

    def _fail(message: str, loc: Location):
        raise StencilSemanticError(
            message, analyzed.source, loc.line, loc.column, analyzed.filename
        )

    ndim = analyzed.ndim
    # Symbols used per dimension, with a representative location each.
    dim_symbols: list[dict[str, Location]] = [dict() for _ in range(ndim)]
    dim_literals: list[int | None] = [None] * ndim
    for nest in analyzed.nests:
        for d, loop in enumerate(nest.loops):
            if isinstance(loop.size, str):
                dim_symbols[d].setdefault(loop.size, loop.loc)
            else:
                if dim_literals[d] is not None and dim_literals[d] != loop.size:
                    _fail(
                        f"dimension {d} has conflicting literal extents "
                        f"{dim_literals[d]} and {loop.size}",
                        loop.loc,
                    )
                dim_literals[d] = loop.size

    # Candidate values contributed by array declarations.
    decl_values: list[int | None] = [None] * ndim
    for decl in analyzed.decls:
        if len(decl.extents) != ndim + 1:
            continue
        for d, extent in enumerate(decl.extents[1:]):
            value: int | None = None
            if isinstance(extent, CNumber) and not extent.is_float:
                value = int(extent.value)
            elif isinstance(extent, CName) and extent.name in analyzed.defines:
                value = analyzed.defines[extent.name]
            if value is not None:
                decl_values[d] = value

    symbol_values: dict[str, int] = {}

    def _bind(symbol: str, value: int, loc: Location) -> None:
        if symbol in symbol_values and symbol_values[symbol] != value:
            _fail(
                f"size symbol {symbol!r} would need two different extents "
                f"({symbol_values[symbol]} and {value})",
                loc,
            )
        symbol_values[symbol] = value

    resolved: list[int] = []
    if sizes is not None:
        if len(sizes) != ndim:
            _fail(
                f"this stencil is {ndim}-D but {len(sizes)} sizes were given: "
                f"{tuple(sizes)}",
                analyzed.nests[0].loc,
            )
        for d, value in enumerate(sizes):
            for symbol, loc in dim_symbols[d].items():
                _bind(symbol, int(value), loc)
            resolved.append(int(value))
    else:
        for d in range(ndim):
            value: int | None = None
            for symbol, loc in dim_symbols[d].items():
                if symbol in analyzed.defines:
                    value = analyzed.defines[symbol]
                    _bind(symbol, value, loc)
            if value is None:
                value = dim_literals[d]
            if value is None:
                value = decl_values[d]
            if value is None:
                symbols = ", ".join(dim_symbols[d]) or "<none>"
                loc = next(iter(dim_symbols[d].values()), analyzed.nests[0].loc)
                _fail(
                    f"cannot determine the extent of dimension {d} (symbol "
                    f"{symbols}); pass sizes=... to parse_stencil or add "
                    f"'#define {symbols or 'N'} <extent>'",
                    loc,
                )
            for symbol, loc in dim_symbols[d].items():
                _bind(symbol, value, loc)
            resolved.append(value)

    if time_steps is not None:
        steps = int(time_steps)
    elif analyzed.time_upper_value is not None:
        steps = analyzed.time_upper_value - analyzed.time_lower
    elif (
        analyzed.time_upper_symbol is not None
        and analyzed.time_upper_symbol in analyzed.defines
    ):
        steps = analyzed.defines[analyzed.time_upper_symbol] - analyzed.time_lower
    else:
        _fail(
            f"cannot determine the number of time steps (symbol "
            f"{analyzed.time_upper_symbol!r}); pass time_steps=... to "
            f"parse_stencil or add '#define {analyzed.time_upper_symbol} <steps>'",
            analyzed.time_upper_loc,
        )
    if steps <= 0:
        _fail("the time loop runs zero times", analyzed.time_upper_loc)
    return tuple(resolved), steps

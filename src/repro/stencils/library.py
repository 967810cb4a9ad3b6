"""The stencil benchmark suite used in the paper's evaluation (Table 3).

The paper reports, for every benchmark, the number of distinct loads and the
number of floating point operations per stencil point (Table 3).  The exact
arithmetic bodies are not printed in the paper, so the bodies below are
reconstructed to match those published counts exactly; the tests in
``tests/stencils`` assert the match.

===================  =====  =============  ==========  =====
benchmark            loads  flops/stencil  data size   steps
===================  =====  =============  ==========  =====
laplacian 2D             5              6  3072²         512
heat 2D                  9              9  3072²         512
gradient 2D              5             15  3072²         512
fdtd 2D (3 stmts)    3/3/5          3/3/5  3072²         512
laplacian 3D             7              8  384³          128
heat 3D                 27             27  384³          128
gradient 3D              7             20  384³          128
===================  =====  =============  ==========  =====
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro._record import dataclass
from repro.model.expr import Call, Constant, Expr, FieldRead
from repro.model.program import StencilProgram, StencilStatement

# Default problem sizes from Table 3.
SIZE_2D = (3072, 3072)
STEPS_2D = 512
SIZE_3D = (384, 384, 384)
STEPS_3D = 128


def _read2(field: str, di: int, dj: int, time_offset: int = 1) -> FieldRead:
    return FieldRead(field, (di, dj), time_offset)


def _read3(field: str, di: int, dj: int, dk: int, time_offset: int = 1) -> FieldRead:
    return FieldRead(field, (di, dj, dk), time_offset)


# -- 2D stencils ---------------------------------------------------------------------


def build_jacobi_2d(sizes: Sequence[int] = SIZE_2D, steps: int = STEPS_2D) -> StencilProgram:
    """The Jacobi 2D stencil of Figure 1: 5 loads, 5 flops."""
    a = "A"
    expr = Constant(0.2) * (
        _read2(a, 0, 0)
        + _read2(a, 1, 0)
        + _read2(a, -1, 0)
        + _read2(a, 0, 1)
        + _read2(a, 0, -1)
    )
    statement = StencilStatement("S0", a, expr, (1, 1), (1, 1))
    return StencilProgram("jacobi_2d", ("i", "j"), sizes, steps, [statement],
                          source=jacobi_2d_source())


def build_laplacian_2d(sizes: Sequence[int] = SIZE_2D, steps: int = STEPS_2D) -> StencilProgram:
    """Laplace 2D: 5-point star, 5 loads, 6 flops."""
    a = "A"
    expr = Constant(0.5) * _read2(a, 0, 0) + Constant(0.125) * (
        _read2(a, 1, 0) + _read2(a, -1, 0) + _read2(a, 0, 1) + _read2(a, 0, -1)
    )
    statement = StencilStatement("S0", a, expr, (1, 1), (1, 1))
    return StencilProgram("laplacian_2d", ("i", "j"), sizes, steps, [statement])


def build_heat_2d(sizes: Sequence[int] = SIZE_2D, steps: int = STEPS_2D) -> StencilProgram:
    """Heat 2D: full 3x3 box, 9 loads, 9 flops."""
    a = "A"
    terms = [
        _read2(a, di, dj)
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
    ]
    expr: Expr = terms[0]
    for term in terms[1:]:
        expr = expr + term
    expr = Constant(1.0 / 9.0) * expr
    statement = StencilStatement("S0", a, expr, (1, 1), (1, 1))
    return StencilProgram("heat_2d", ("i", "j"), sizes, steps, [statement])


def build_gradient_2d(sizes: Sequence[int] = SIZE_2D, steps: int = STEPS_2D) -> StencilProgram:
    """Gradient 2D: 5 loads, 15 flops (4 diffs, 4 squares, 4 adds, sqrt, div, mul)."""
    a = "A"
    center = _read2(a, 0, 0)
    dx1 = center - _read2(a, 0, -1)
    dx2 = center - _read2(a, 0, 1)
    dy1 = center - _read2(a, -1, 0)
    dy2 = center - _read2(a, 1, 0)
    magnitude = dx1 * dx1 + dx2 * dx2 + dy1 * dy1 + dy2 * dy2
    expr = Constant(0.5) * (center / Call("sqrtf", (magnitude + Constant(1.0),)))
    statement = StencilStatement("S0", a, expr, (1, 1), (1, 1))
    return StencilProgram("gradient_2d", ("i", "j"), sizes, steps, [statement])


def build_fdtd_2d(sizes: Sequence[int] = SIZE_2D, steps: int = STEPS_2D) -> StencilProgram:
    """FDTD 2D: a multi-statement kernel (3 statements; 3/3/5 loads, 3/3/5 flops)."""
    ey_update = StencilStatement(
        "Sey",
        "ey",
        FieldRead("ey", (0, 0), 1)
        - Constant(0.5) * (FieldRead("hz", (0, 0), 1) - FieldRead("hz", (-1, 0), 1)),
        (1, 1),
        (1, 1),
    )
    ex_update = StencilStatement(
        "Sex",
        "ex",
        FieldRead("ex", (0, 0), 1)
        - Constant(0.5) * (FieldRead("hz", (0, 0), 1) - FieldRead("hz", (0, -1), 1)),
        (1, 1),
        (1, 1),
    )
    hz_update = StencilStatement(
        "Shz",
        "hz",
        FieldRead("hz", (0, 0), 1)
        - Constant(0.7)
        * (
            FieldRead("ex", (0, 1), 0)
            - FieldRead("ex", (0, 0), 0)
            + FieldRead("ey", (1, 0), 0)
            - FieldRead("ey", (0, 0), 0)
        ),
        (1, 1),
        (1, 1),
    )
    return StencilProgram(
        "fdtd_2d", ("i", "j"), sizes, steps, [ey_update, ex_update, hz_update]
    )


# -- 3D stencils ----------------------------------------------------------------------


def build_laplacian_3d(sizes: Sequence[int] = SIZE_3D, steps: int = STEPS_3D) -> StencilProgram:
    """Laplace 3D: 7-point star, 7 loads, 8 flops."""
    a = "A"
    neighbours = (
        _read3(a, 1, 0, 0)
        + _read3(a, -1, 0, 0)
        + _read3(a, 0, 1, 0)
        + _read3(a, 0, -1, 0)
        + _read3(a, 0, 0, 1)
        + _read3(a, 0, 0, -1)
    )
    expr = Constant(0.5) * _read3(a, 0, 0, 0) + Constant(0.0833) * neighbours
    statement = StencilStatement("S0", a, expr, (1, 1, 1), (1, 1, 1))
    return StencilProgram("laplacian_3d", ("i", "j", "k"), sizes, steps, [statement])


def build_heat_3d(sizes: Sequence[int] = SIZE_3D, steps: int = STEPS_3D) -> StencilProgram:
    """Heat 3D: full 3x3x3 box, 27 loads, 27 flops."""
    a = "A"
    terms = [
        _read3(a, di, dj, dk)
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
        for dk in (-1, 0, 1)
    ]
    expr: Expr = terms[0]
    for term in terms[1:]:
        expr = expr + term
    expr = Constant(1.0 / 27.0) * expr
    statement = StencilStatement("S0", a, expr, (1, 1, 1), (1, 1, 1))
    return StencilProgram("heat_3d", ("i", "j", "k"), sizes, steps, [statement])


def build_gradient_3d(sizes: Sequence[int] = SIZE_3D, steps: int = STEPS_3D) -> StencilProgram:
    """Gradient 3D: 7 loads, 20 flops (6 diffs, 6 squares, 5+1 adds, sqrt, div)."""
    a = "A"
    center = _read3(a, 0, 0, 0)
    diffs = [
        center - _read3(a, 1, 0, 0),
        center - _read3(a, -1, 0, 0),
        center - _read3(a, 0, 1, 0),
        center - _read3(a, 0, -1, 0),
        center - _read3(a, 0, 0, 1),
        center - _read3(a, 0, 0, -1),
    ]
    squares = [d * d for d in diffs]
    total: Expr = squares[0]
    for square in squares[1:]:
        total = total + square
    expr = center / Call("sqrtf", (total + Constant(1.0),))
    statement = StencilStatement("S0", a, expr, (1, 1, 1), (1, 1, 1))
    return StencilProgram("gradient_3d", ("i", "j", "k"), sizes, steps, [statement])


# -- extra stencils used in tests and examples -------------------------------------------------


def build_jacobi_1d(size: int = 4096, steps: int = 256) -> StencilProgram:
    """A 1-D Jacobi stencil (pure hexagonal tiling, no classical dimensions)."""
    a = "A"
    expr = Constant(1.0 / 3.0) * (
        FieldRead(a, (0,), 1) + FieldRead(a, (1,), 1) + FieldRead(a, (-1,), 1)
    )
    statement = StencilStatement("S0", a, expr, (1,), (1,))
    return StencilProgram("jacobi_1d", ("i",), (size,), steps, [statement])


def build_wide_1d(size: int = 4096, steps: int = 256) -> StencilProgram:
    """A 1-D stencil with an asymmetric, radius-2 footprint (tests the cone)."""
    a = "A"
    expr = Constant(0.25) * (
        FieldRead(a, (-2,), 1) + FieldRead(a, (-1,), 1) + FieldRead(a, (0,), 1)
    ) + Constant(0.1) * FieldRead(a, (1,), 1)
    statement = StencilStatement("S0", a, expr, (2,), (2,))
    return StencilProgram("wide_1d", ("i",), (size,), steps, [statement])


def build_higher_order_time(size: int = 2048, steps: int = 128) -> StencilProgram:
    """The paper's contrived example ``A[t][i] = f(A[t-2][i-2], A[t-1][i+2])``."""
    a = "A"
    expr = Constant(0.5) * FieldRead(a, (-2,), 2) + Constant(0.5) * FieldRead(a, (2,), 1)
    statement = StencilStatement("S0", a, expr, (2,), (2,))
    return StencilProgram("higher_order_time", ("i",), (size,), steps, [statement])


# -- registry --------------------------------------------------------------------------------


@dataclass(frozen=True)
class StencilDefinition:
    """A named benchmark stencil and its default (paper) problem size."""

    name: str
    builder: Callable[..., StencilProgram]
    default_sizes: tuple[int, ...]
    default_steps: int
    dimensions: int
    description: str
    in_paper: bool = True


_REGISTRY: dict[str, StencilDefinition] = {}


def _register(definition: StencilDefinition) -> None:
    _REGISTRY[definition.name] = definition


_register(StencilDefinition("jacobi_2d", build_jacobi_2d, SIZE_2D, STEPS_2D, 2,
                            "Jacobi 2D 5-point stencil (Figure 1)", in_paper=False))
_register(StencilDefinition("laplacian_2d", build_laplacian_2d, SIZE_2D, STEPS_2D, 2,
                            "Laplace 2D, 5 loads / 6 flops"))
_register(StencilDefinition("heat_2d", build_heat_2d, SIZE_2D, STEPS_2D, 2,
                            "Heat 2D 3x3 box, 9 loads / 9 flops"))
_register(StencilDefinition("gradient_2d", build_gradient_2d, SIZE_2D, STEPS_2D, 2,
                            "Gradient 2D, 5 loads / 15 flops"))
_register(StencilDefinition("fdtd_2d", build_fdtd_2d, SIZE_2D, STEPS_2D, 2,
                            "FDTD 2D multi-statement kernel, 3/3/5 loads"))
_register(StencilDefinition("laplacian_3d", build_laplacian_3d, SIZE_3D, STEPS_3D, 3,
                            "Laplace 3D 7-point, 7 loads / 8 flops"))
_register(StencilDefinition("heat_3d", build_heat_3d, SIZE_3D, STEPS_3D, 3,
                            "Heat 3D 3x3x3 box, 27 loads / 27 flops"))
_register(StencilDefinition("gradient_3d", build_gradient_3d, SIZE_3D, STEPS_3D, 3,
                            "Gradient 3D, 7 loads / 20 flops"))
_register(StencilDefinition("jacobi_1d", build_jacobi_1d, (4096,), 256, 1,
                            "Jacobi 1D (testing / pure hexagonal tiling)", in_paper=False))
_register(StencilDefinition("wide_1d", build_wide_1d, (4096,), 256, 1,
                            "Asymmetric radius-2 1D stencil (tests)", in_paper=False))
_register(StencilDefinition("higher_order_time", build_higher_order_time, (2048,), 128, 1,
                            "Section 3.3.2 example A[t][i] = f(A[t-2][i-2], A[t-1][i+2])",
                            in_paper=False))


def list_stencils(paper_only: bool = False) -> list[str]:
    """Names of all registered stencils."""
    return [
        name
        for name, definition in sorted(_REGISTRY.items())
        if definition.in_paper or not paper_only
    ]


def paper_benchmarks() -> list[str]:
    """The seven benchmarks of Tables 1 and 2, in the order the paper lists them."""
    return [
        "laplacian_2d",
        "heat_2d",
        "gradient_2d",
        "fdtd_2d",
        "laplacian_3d",
        "heat_3d",
        "gradient_3d",
    ]


def get_definition(name: str) -> StencilDefinition:
    """The registry entry for a stencil name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown stencil {name!r}; known: {list_stencils()}")
    return _REGISTRY[name]


def get_stencil(
    name: str,
    sizes: Sequence[int] | None = None,
    steps: int | None = None,
) -> StencilProgram:
    """Instantiate a benchmark stencil, optionally overriding size and steps.

    Small sizes are used by the tests and the functional GPU simulator; the
    defaults are the problem sizes of Table 3.
    """
    definition = get_definition(name)
    use_sizes = tuple(sizes) if sizes is not None else definition.default_sizes
    use_steps = steps if steps is not None else definition.default_steps
    if len(use_sizes) != definition.dimensions:
        raise ValueError(
            f"stencil {name!r} is {definition.dimensions}-D but "
            f"{len(use_sizes)} sizes were given: {use_sizes}"
        )
    if definition.dimensions == 1:
        return definition.builder(use_sizes[0], use_steps)
    return definition.builder(use_sizes, use_steps)


def register_from_source(
    source: str,
    name: str | None = None,
    *,
    sizes: Sequence[int] | None = None,
    steps: int | None = None,
    description: str | None = None,
    replace: bool = False,
) -> StencilDefinition:
    """Parse C stencil source with the front end and add it to the registry.

    The source is parsed once eagerly (so malformed input fails here, with a
    source-located error) and the resulting program's sizes/steps become the
    registered defaults.  The definition's builder re-parses with the sizes
    and steps :func:`get_stencil` passes, so registered stencils support size
    overrides exactly like the built-in ones.
    """
    from repro.frontend import parse_stencil

    program = parse_stencil(source, name=name, sizes=sizes, time_steps=steps)
    if program.name in _REGISTRY and not replace:
        raise ValueError(
            f"stencil {program.name!r} is already registered "
            "(pass replace=True to overwrite)"
        )

    def builder(
        build_sizes: Sequence[int] | int = program.sizes,
        build_steps: int = program.time_steps,
    ) -> StencilProgram:
        if isinstance(build_sizes, int):
            build_sizes = (build_sizes,)
        return parse_stencil(
            source,
            name=program.name,
            sizes=tuple(build_sizes),
            time_steps=build_steps,
        )

    definition = StencilDefinition(
        name=program.name,
        builder=builder,
        default_sizes=program.sizes,
        default_steps=program.time_steps,
        dimensions=program.ndim,
        description=description or f"user stencil ({program.ndim}-D, from C source)",
        in_paper=False,
    )
    _register(definition)
    return definition


def unregister(name: str) -> None:
    """Remove a stencil from the registry (no-op if absent)."""
    _REGISTRY.pop(name, None)


def jacobi_2d_source() -> str:
    """The Jacobi 2D C source of Figure 1 of the paper."""
    return (
        "for (t=0; t < T; t++)\n"
        "  for (i=1; i < N-1; i++)\n"
        "#pragma ivdep\n"
        "    for (j=1; j < N-1; j++)\n"
        "      A[(t+1)%2][i][j] = 0.2f * (A[t%2][i][j] +\n"
        "        A[t%2][i+1][j] + A[t%2][i-1][j] +\n"
        "        A[t%2][i][j+1] + A[t%2][i][j-1]);\n"
    )


def c_source_for(name: str) -> str:
    """C source text of a registered stencil (regenerated if not stored)."""
    return get_stencil(name, sizes=None, steps=None).c_source()

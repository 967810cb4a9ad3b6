"""C stencil front end — from Figure-1-style loop nests to :class:`StencilProgram`.

The front end stands in for the pet/clang pipeline the paper's tool chain is
built on: it accepts ordinary C stencil code — an outer time loop enclosing
one or more perfectly nested spatial loop nests with double-buffered
(``A[(t+1)%2][i][j]``) or time-offset (``A[t-1][i]``) accesses, ``#pragma
ivdep``, float constants and intrinsic calls such as ``sqrtf`` — and produces
the same :class:`~repro.model.program.StencilProgram` IR the hand-built
library stencils use, ready for hybrid tiling, code generation, validation
and simulation::

    from repro.frontend import parse_stencil

    program = parse_stencil('''
        /* jacobi_1d */
        #define T 64
        #define N 1024
        float A[2][N];
        for (t = 0; t < T; t++)
          for (i = 1; i < N - 1; i++)
            A[(t+1)%2][i] = 0.33f * (A[t%2][i-1] + A[t%2][i] + A[t%2][i+1]);
    ''')

Everything outside the supported fragment is rejected with a source-located
:class:`FrontendError` (line, column and a caret snippet) — see
:mod:`repro.frontend.errors`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.frontend.errors import (
    FrontendError,
    StencilSemanticError,
    StencilSyntaxError,
)

if TYPE_CHECKING:
    from repro.model.program import StencilProgram


def parse_stencil(
    source: str,
    *,
    name: str | None = None,
    sizes: Sequence[int] | None = None,
    time_steps: int | None = None,
    filename: str | None = None,
) -> StencilProgram:
    """Parse Figure-1-style C stencil code into a :class:`StencilProgram`.

    Parameters
    ----------
    source:
        The C source text.
    name:
        Program name; defaults to a leading ``/* name */`` comment, then
        ``"stencil"``.
    sizes:
        Concrete grid extents, overriding ``#define``/declaration extents in
        the source (required when the source leaves the bounds symbolic).
    time_steps:
        Number of time iterations, overriding the source.
    filename:
        Display name used in diagnostics.

    Raises
    ------
    FrontendError
        With precise line/column information and a caret snippet when the
        source is malformed or falls outside the supported stencil fragment.
    """
    from repro.frontend.analyze import analyze_program, resolve_extents
    from repro.frontend.lower import lower_stencil
    from repro.frontend.parser import parse_source

    program = parse_source(source, filename)
    analyzed = analyze_program(program, source, filename)
    resolved_sizes, resolved_steps = resolve_extents(
        analyzed,
        tuple(int(s) for s in sizes) if sizes is not None else None,
        time_steps,
    )
    # Keep the original text only when it still describes the program: if an
    # explicit sizes/time_steps override changed anything, the source's
    # #defines would be stale, so drop it and let c_source() regenerate a
    # faithful form.
    keep_source = True
    if sizes is not None or time_steps is not None:
        try:
            self_resolved = resolve_extents(analyzed, None, None)
        except FrontendError:
            keep_source = False
        else:
            keep_source = self_resolved == (resolved_sizes, resolved_steps)
    return lower_stencil(
        analyzed, resolved_sizes, resolved_steps, name=name, keep_source=keep_source
    )


def parse_stencil_file(
    path: str,
    *,
    name: str | None = None,
    sizes: Sequence[int] | None = None,
    time_steps: int | None = None,
) -> StencilProgram:
    """Read ``path`` and parse it with :func:`parse_stencil`."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return parse_stencil(
        source, name=name, sizes=sizes, time_steps=time_steps, filename=path
    )


__all__ = [
    "FrontendError",
    "StencilSemanticError",
    "StencilSyntaxError",
    "parse_stencil",
    "parse_stencil_file",
]

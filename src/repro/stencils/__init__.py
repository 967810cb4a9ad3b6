"""The benchmark stencils of the paper (Table 3) plus a few extras for tests.

Every stencil is available both as a :class:`~repro.model.program.StencilProgram`
factory (:func:`get_stencil`) and as C source text
(:func:`repro.stencils.library.c_source_for`), the latter exercising the
front end.
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    name: "repro.stencils.library"
    for name in (
        "StencilDefinition",
        "get_definition",
        "get_stencil",
        "list_stencils",
        "paper_benchmarks",
        "register_from_source",
        "unregister",
        "c_source_for",
        "jacobi_2d_source",
    )
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

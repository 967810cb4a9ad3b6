"""Canonicalisation of stencil programs (Section 3.2 of the paper).

The hybrid tiling of Section 3.6 is defined on a *canonical* schedule space
``[l, s0, ..., sn]`` where ``l = k*t + i`` is the logical time (``k`` the
number of statements, ``i`` the statement's position inside the time loop)
and all dependences are carried by ``l``.  :func:`canonicalize` validates the
structural assumptions, computes the dependence distances in that space and
packages everything the tiling algorithms need.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Sequence

from repro._record import dataclass
from repro.model.dependences import (
    Dependence,
    DependenceError,
    compute_dependences,
    dependence_distance_vectors,
    validate_stencil_assumptions,
)
from repro.model.program import StencilProgram


def statement_boxes(
    program: StencilProgram,
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Inclusive ``(lower, upper)`` bounds of each statement's domain.

    Every iteration domain of Section 3.2 is a box over ``(t, s0, ..., sn)``:
    ``0 <= t < T`` and, along each space axis,
    ``lower_margin <= s <= size - 1 - upper_margin``.  A box is empty when an
    upper bound is below its lower bound.
    """
    return tuple(
        (
            (0, *statement.lower_margin),
            (
                program.time_steps - 1,
                *(
                    size - 1 - upper
                    for size, upper in zip(program.sizes, statement.upper_margin)
                ),
            ),
        )
        for statement in program.statements
    )


@dataclass(frozen=True)
class CanonicalForm:
    """A stencil program together with its canonical schedule space.

    Attributes
    ----------
    program:
        The original stencil program.
    num_statements:
        ``k`` — the number of statements interleaved on the logical time axis.
    space_dims:
        Names of the space dimensions, in schedule order (the hexagonally
        tiled dimension first).
    dependences:
        All dependences in the canonical space.
    distance_vectors:
        The distinct dependence distance vectors ``(dl, ds0, ..., dsn)``.
    logical_time_extent:
        Number of logical time values, ``k * time_steps``.
    """

    program: StencilProgram
    num_statements: int
    space_dims: tuple[str, ...]
    dependences: tuple[Dependence, ...]
    distance_vectors: tuple[tuple[int, ...], ...]
    logical_time_extent: int

    # -- coordinate conversions ------------------------------------------------

    def to_canonical(
        self, statement_index: int, t: int, point: Sequence[int]
    ) -> tuple[int, ...]:
        """Map a statement instance to the canonical space ``[l, s...]``."""
        return (self.num_statements * t + statement_index, *point)

    def from_canonical(
        self, canonical_point: Sequence[int]
    ) -> tuple[int, int, tuple[int, ...]]:
        """Inverse of :meth:`to_canonical`; returns ``(statement_index, t, s)``."""
        logical = canonical_point[0]
        statement_index = logical % self.num_statements
        t = logical // self.num_statements
        return statement_index, t, tuple(canonical_point[1:])

    def instances_array(self):
        """All statement instances as a cached ``(N, 1 + ndim)`` int64 array.

        One canonical point ``(l, s0, ..., sn)`` per row: statement by
        statement, each statement's box (:func:`statement_boxes`) in
        lexicographic ``(t, s0, ..., sn)`` order, with ``l = k*t + i``.  Only
        intended for the small grids used in validation and testing; this is
        the columnar input of the scheduling passes, and the validator and
        the functional simulator share the memo.
        """
        import numpy as np

        cached = self.__dict__.get("_instances_array_cache")
        if cached is None:
            blocks = []
            for index, (lower, upper) in enumerate(statement_boxes(self.program)):
                ranges = [
                    np.arange(lo, hi + 1, dtype=np.int64)
                    for lo, hi in zip(lower, upper)
                ]
                axes = np.meshgrid(*ranges, indexing="ij")
                block = np.stack([axis.ravel() for axis in axes], axis=1)
                block[:, 0] = self.num_statements * block[:, 0] + index
                blocks.append(block)
            cached = np.concatenate(blocks)
            cached.setflags(write=False)
            # The record is frozen; stash the memo directly in __dict__.
            object.__setattr__(self, "_instances_array_cache", cached)
        return cached

    def __getstate__(self) -> dict:
        """Drop the instance-enumeration memo when pickling."""
        state = self.__dict__.copy()
        state.pop("_instances_array_cache", None)
        return state

    # -- dependence geometry -----------------------------------------------------

    def space_distance_bounds(self, dim_index: int) -> tuple[Fraction, Fraction]:
        """Bounds ``(delta0, delta1)`` of the dependence slopes for a space dim.

        ``delta0`` bounds the distance from above (``ds <= delta0 * dl``) and
        ``delta1`` from below (``ds >= -delta1 * dl``); both are the smallest
        such non-negative rationals, as required by Section 3.3.2.
        """
        delta0 = Fraction(0)
        delta1 = Fraction(0)
        for distance in self.distance_vectors:
            dl = distance[0]
            ds = distance[1 + dim_index]
            delta0 = max(delta0, Fraction(ds, dl))
            delta1 = max(delta1, Fraction(-ds, dl))
        return delta0, delta1


def canonicalize(program: StencilProgram) -> CanonicalForm:
    """Validate and canonicalise a stencil program (Section 3.2).

    The dependences are those of time-expanded arrays, the default of
    :func:`~repro.model.dependences.compute_dependences`.  Raises
    :class:`~repro.model.dependences.DependenceError` when the program does
    not satisfy the assumptions of Sections 3.2/3.3.1 (for instance when a
    dependence is not carried by the time dimension).
    """
    dependences = compute_dependences(program)
    validate_stencil_assumptions(program, dependences)
    vectors = dependence_distance_vectors(dependences)
    if not vectors:
        raise DependenceError(
            "the program has no dependences at all; time tiling is pointless "
            "and the hexagonal construction is undefined"
        )
    return CanonicalForm(
        program=program,
        num_statements=program.num_statements,
        space_dims=program.space_dims,
        dependences=tuple(dependences),
        distance_vectors=tuple(vectors),
        logical_time_extent=program.num_statements * program.time_steps,
    )

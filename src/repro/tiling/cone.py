"""Opposite dependence cone and its bounding slopes (Section 3.3.2, Figure 3).

Given the dependence distance vectors of a stencil, the construction of the
hexagonal tile shape needs, for every space dimension ``s``, the two smallest
non-negative rationals ``δ0`` and ``δ1`` such that every dependence distance
``(Δt, Δs)`` satisfies::

    Δs <= δ0 * Δt        and        Δs >= -δ1 * Δt

The paper computes these through an LP.  Because the front end only produces
a finite set of constant distance vectors, the LP optimum is the largest ratio
``Δs/Δt`` over them, which is what :meth:`DependenceCone.from_distance_vectors`
computes.  The LP formulation is kept as a cross-check in
``tests/polyhedral/lp_oracle.py``.
"""

from __future__ import annotations

from repro._record import dataclass
from fractions import Fraction
from collections.abc import Iterable, Sequence


@dataclass(frozen=True)
class DependenceCone:
    """The projection of the opposite dependence cone onto ``(t, s)``.

    ``delta0`` bounds positive space distances (``Δs <= δ0·Δt``), ``delta1``
    bounds negative ones (``Δs >= -δ1·Δt``).  The *opposite* cone of Figure 3
    is generated by the rays ``(-1, -δ0)`` and ``(-1, δ1)``.
    """

    delta0: Fraction
    delta1: Fraction

    def __post_init__(self) -> None:
        if self.delta0 < 0 or self.delta1 < 0:
            raise ValueError("cone slopes must be non-negative")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_distance_vectors(
        distances: Iterable[Sequence[int]], dim_index: int = 0
    ) -> "DependenceCone":
        """Compute the cone for space dimension ``dim_index``.

        ``distances`` are canonical-space distance vectors
        ``(Δt, Δs0, ..., Δsn)``; ``dim_index`` selects the space dimension
        (0 selects ``s0``).
        """
        delta0 = Fraction(0)
        delta1 = Fraction(0)
        empty = True
        for distance in distances:
            empty = False
            dt = distance[0]
            ds = distance[1 + dim_index]
            if dt <= 0:
                raise ValueError(
                    f"distance vector {tuple(distance)} is not carried by time"
                )
            delta0 = max(delta0, Fraction(ds, dt))
            delta1 = max(delta1, Fraction(-ds, dt))
        if empty:
            raise ValueError("cannot build a dependence cone from no dependences")
        return DependenceCone(delta0, delta1)

    # -- queries -----------------------------------------------------------------

    def opposite_rays(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        """The generating rays ``(-1, -δ0)`` and ``(-1, δ1)`` of Figure 3."""
        return ((Fraction(-1), -self.delta0), (Fraction(-1), self.delta1))

    def __str__(self) -> str:
        return f"DependenceCone(delta0={self.delta0}, delta1={self.delta1})"

"""Brute-force oracle for the symbolic verifier's inner-tile displacements.

``admissible_displacements`` enumerates every sink numerator residue ``ρ`` of
one classically tiled inner dimension and collects the tile displacement
each one produces.  The verifier decides the same set in closed form; this
enumeration shares no arithmetic shortcut with it.
"""

from __future__ import annotations

from repro.verify.symbolic import InnerDim


def admissible_displacements(
    dim: InnerDim, distance: int, u_sink: int, u_src: int
) -> list[tuple[int, int]]:
    """Distinct ``floor((ρ + δ)/period)`` over all residues, smallest witness each.

    ``ρ`` runs over ``ρ ≡ skew*u_sink (mod scale)`` in ``[0, period)`` and
    ``δ = -scale*ds_i + skew*(u_src - u_sink)``.
    """
    delta = -dim.scale * distance + dim.skew * (u_src - u_sink)
    base = (dim.skew * u_sink) % dim.scale if dim.scale > 1 else 0
    seen: dict[int, int] = {}
    for rho in range(base, dim.period, max(dim.scale, 1)):
        value = (rho + delta) // dim.period
        seen.setdefault(value, rho)
    return sorted(seen.items())

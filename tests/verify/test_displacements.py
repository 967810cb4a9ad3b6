"""Closed-form inner-tile displacements against residue enumeration.

The symbolic verifier decides the possible displacements ``ΔS_i`` of one
classically tiled dimension without visiting the sink residues one by one;
the brute-force oracle in ``residue_oracle`` visits every one.  No library
stencil has a rational slope (``scale > 1``), so both tests draw their own.
"""

from __future__ import annotations

import itertools

import residue_oracle
from hypothesis import given, settings, strategies as st

from repro.verify.symbolic import InnerDim, _admissible_displacements


@settings(max_examples=500, deadline=None)
@given(
    scale=st.integers(1, 5),
    skew=st.integers(-10, 10),
    width=st.integers(1, 140),
    distance=st.integers(-6, 6),
    u_sink=st.integers(0, 40),
    u_src=st.integers(0, 40),
)
def test_closed_form_matches_residue_enumeration(
    scale, skew, width, distance, u_sink, u_src
):
    dim = InnerDim("s1", scale, skew, width)
    assert _admissible_displacements(
        dim, distance, u_sink, u_src
    ) == residue_oracle.admissible_displacements(dim, distance, u_sink, u_src)


def test_closed_form_matches_residue_enumeration_on_every_small_tile():
    two_valued = 0
    for scale, skew, width, distance, u_sink, u_src in itertools.product(
        range(1, 6), range(-4, 5), range(1, 7), range(-3, 4), range(4), range(4)
    ):
        dim = InnerDim("s1", scale, skew, width)
        expected = residue_oracle.admissible_displacements(
            dim, distance, u_sink, u_src
        )
        assert _admissible_displacements(dim, distance, u_sink, u_src) == expected
        two_valued += scale > 1 and len(expected) == 2
    # The high value and its witness are exercised on rational slopes too.
    assert two_valued > 0

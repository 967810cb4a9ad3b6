"""The row-run hybrid race check against a class-by-class oracle.

:func:`repro.verify.symbolic.verify_hybrid` visits each row ``λ`` as a few
runs of ``μ`` on which a point's phase assignment is constant; the oracle in
``class_oracle`` assigns every ``(λ, μ)`` class on its own.  Their verdicts
must be equal in every field: the classes checked, the first witness of
each ordering level, the coverage witnesses, every message and every
counterexample instance.  Mutants reach the race, block, intra-tile and
coverage paths the clean schedules never take.
"""

from __future__ import annotations

import functools

import pytest
from class_oracle import verify_hybrid_by_class
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.gpu.device import get_device
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil, list_stencils
from repro.tiling.cone import DependenceCone
from repro.tiling.hexagon import minimal_width
from repro.tiling.hybrid import HybridTiling, TileSizes
from repro.verify import HybridScheduleModel, mutation_corpus, verify_hybrid


def _models(model):
    """The model and every mutant of the corpus that applies to it."""
    yield "clean", model
    for mutation in mutation_corpus(inner_dims=len(model.inner)):
        try:
            yield mutation.name, mutation.apply(model)
        except ValueError:  # the mutation leaves this model unchanged
            continue


def _assert_same_verdicts(canonical, model):
    for label, candidate in _models(model):
        assert verify_hybrid(canonical, candidate) == verify_hybrid_by_class(
            canonical, candidate
        ), label


@pytest.mark.parametrize("device", ["gtx470", "nvs5200m"])
@pytest.mark.parametrize("name", list_stencils())
def test_library_picks_and_their_mutants_match_the_class_oracle(name, device):
    session = Session(device=get_device(device))
    run = session.run(get_stencil(name), stop_after="tiling")
    canonical = run.artifact("canonicalize").canonical
    model = HybridScheduleModel.from_tiling(run.artifact("tiling").tiling)
    _assert_same_verdicts(canonical, model)


@functools.cache
def _canonical(name):
    return canonicalize(get_stencil(name))


@st.composite
def tilings(draw):
    """A legal hybrid tiling of a library stencil at random tile sizes."""
    canonical = _canonical(draw(st.sampled_from(list_stencils())))
    k = canonical.num_statements
    height = k * draw(st.integers(1, max(1, 8 // k))) - 1
    cone = DependenceCone.from_distance_vectors(
        canonical.distance_vectors, dim_index=0
    )
    w0 = minimal_width(cone.delta0, cone.delta1, height) + draw(st.integers(0, 12))
    inner = draw(
        st.lists(
            st.integers(1, 40),
            min_size=len(canonical.space_dims) - 1,
            max_size=len(canonical.space_dims) - 1,
        )
    )
    return canonical, HybridTiling(canonical, TileSizes(height, (w0, *inner)))


@settings(max_examples=40, deadline=None)
@given(tilings())
def test_random_tilings_and_their_mutants_match_the_class_oracle(tiling):
    canonical, hybrid = tiling
    _assert_same_verdicts(canonical, HybridScheduleModel.from_tiling(hybrid))

"""The row-run race checks against class-by-class oracles.

:func:`repro.verify.symbolic.verify_hybrid` visits each row ``λ`` as a few
runs of ``μ`` on which a point's phase assignment is constant; the oracle in
``class_oracle`` assigns every ``(λ, μ)`` class on its own.  Their verdicts
must be equal in every field: the classes checked, the first witness of
each ordering level, the coverage witnesses, every message and every
counterexample instance.  Mutants reach the race, block, intra-tile and
coverage paths the clean schedules never take.

:func:`repro.verify.symbolic.verify_diamond` decides each row ``λ`` by runs
of ``σ``, and its verdicts must equal those of the oracle that visits every
``(λ, σ)`` class.  Diamond tiles built for a unit dependence cone race on
the steeper ``wide_1d`` and ``higher_order_time``.
"""

from __future__ import annotations

import functools

import pytest
from class_oracle import verify_diamond_by_class, verify_hybrid_by_class
from hypothesis import given, settings, strategies as st

from repro._record import replace
from repro.api import Session, StrategyError
from repro.gpu.device import get_device
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil, list_stencils
from repro.tiling.cone import DependenceCone
from repro.tiling.diamond import DiamondTiling
from repro.tiling.hexagon import minimal_width
from repro.tiling.hybrid import HybridTiling, TileSizes
from repro.verify import (
    HybridScheduleModel,
    mutation_corpus,
    verify_diamond,
    verify_hybrid,
)


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


def _unit_cone_tiling(size):
    """A diamond tiling of ``size`` for jacobi_1d's unit dependence cone."""
    canonical = _canonical("jacobi_1d")
    cone = DependenceCone.from_distance_vectors(canonical.distance_vectors, dim_index=0)
    return DiamondTiling(size, cone=cone)


def _assert_same_diamond_verdict(canonical, tiling):
    verdict = verify_diamond(canonical, tiling)
    assert verdict == verify_diamond_by_class(canonical, tiling)
    return verdict


@pytest.mark.parametrize("name", list_stencils())
def test_diamond_picks_and_small_tiles_match_the_class_oracle(name):
    """Both devices' diamond picks (where the slopes allow one) and tiles of
    3-8 built for a unit cone."""
    canonical = _canonical(name)
    for size in range(3, 9):
        _assert_same_diamond_verdict(canonical, _unit_cone_tiling(size))
    for device in ("gtx470", "nvs5200m"):
        session = Session(strategy="diamond", device=get_device(device))
        try:
            run = session.run(get_stencil(name), stop_after="tiling")
        except StrategyError:
            continue  # dependence slopes above 1: no diamond schedule
        verdict = _assert_same_diamond_verdict(canonical, run.artifact("tiling").tiling)
        assert verdict.ok


@pytest.mark.parametrize("name", ["wide_1d", "higher_order_time"])
def test_unit_cone_diamonds_race_on_steep_stencils(name):
    canonical = _canonical(name)
    for size in range(3, 9):
        verdict = _assert_same_diamond_verdict(canonical, _unit_cone_tiling(size))
        assert {race.level for race in verdict.races} >= {"block"}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list_stencils()), st.integers(1, 64))
def test_random_diamond_sizes_match_the_class_oracle(name, size):
    _assert_same_diamond_verdict(_canonical(name), _unit_cone_tiling(size))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-7, 7)), min_size=1, max_size=4
    ),
    st.integers(1, 12),
)
def test_arbitrary_dependences_match_the_class_oracle(distances, size):
    """Dependence vectors ``(dl, ds0)`` of any sign and slope, so that races of
    every level start anywhere in a row and in any row."""
    canonical = _canonical("jacobi_1d")
    (template,) = {dependence.sink: dependence for dependence in canonical.dependences}.values()
    dependences = tuple(replace(template, distance=distance) for distance in distances)
    _assert_same_diamond_verdict(
        replace(canonical, dependences=dependences), _unit_cone_tiling(size)
    )

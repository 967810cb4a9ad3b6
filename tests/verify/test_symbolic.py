"""The symbolic race detector accepts every schedule the compiler emits.

These tests run the detector over *symbolic* problem sizes: one verdict per
(stencil, strategy) covers every sufficiently large grid at once, which is
the whole point — the enumerated validator of :mod:`repro.tiling.validate`
can only ever check one concrete instance.
"""

from __future__ import annotations

import pytest

from repro.api import Session, StrategyError, get_stencil, list_stencils
from repro.model.preprocess import canonicalize
from repro.tiling.hybrid import HybridTiling, TileSizes
from repro.verify import (
    ORDERING_LEVELS,
    HybridScheduleModel,
    VerificationError,
    get_mutation,
    verify_hybrid,
    verify_tiling_plan,
)


def _tiling_verdict(name: str, strategy: str):
    session = Session(strategy=strategy)
    run = session.run(get_stencil(name), stop_after="tiling")
    canonical = run.artifact("canonicalize").canonical
    return verify_tiling_plan(canonical, run.artifact("tiling"))


@pytest.mark.parametrize("name", list_stencils())
def test_hybrid_schedules_are_race_free_for_all_sizes(name):
    verdict = _tiling_verdict(name, "hybrid")
    assert verdict.ok
    assert verdict.coverage_ok
    assert verdict.races == ()
    assert verdict.dependences_checked > 0
    assert verdict.classes_checked > 0


@pytest.mark.parametrize("name", list_stencils())
def test_classical_schedules_are_race_free_for_all_sizes(name):
    verdict = _tiling_verdict(name, "classical")
    assert verdict.ok
    assert verdict.dependences_checked > 0


@pytest.mark.parametrize("name", list_stencils())
def test_diamond_schedules_are_race_free_for_all_sizes(name):
    try:
        verdict = _tiling_verdict(name, "diamond")
    except StrategyError:
        # Diamond tiling rejects dependence slopes > 1 by construction
        # (higher_order_time, wide_1d); nothing to verify.
        pytest.skip("diamond tiling is not applicable to this stencil")
    assert verdict.ok
    assert verdict.dependences_checked > 0


def _small_model(name="jacobi_2d", sizes=(12, 12), steps=4, h=1, widths=(2, 4)):
    canonical = canonicalize(get_stencil(name, sizes=sizes, steps=steps))
    tiling = HybridTiling(canonical, TileSizes(h, widths))
    return canonical, HybridScheduleModel.from_tiling(tiling)


def test_race_counterexamples_are_concrete_instance_pairs():
    canonical, model = _small_model()
    mutated = get_mutation("phase-swap").apply(model)
    verdict = verify_hybrid(canonical, mutated)
    assert not verdict.ok
    for race in verdict.races:
        assert race.level in ORDERING_LEVELS
        assert race.strategy == "hybrid"
        assert race.dependence in race.message
        source, sink = race.source, race.sink
        assert source is not None and sink is not None
        # Counterexamples are concrete: integer time steps and points, plus
        # the full named schedule coordinates of both endpoints.
        assert sink.t - source.t >= 0
        assert len(source.point) == len(sink.point) == 2
        for instance in (source, sink):
            coords = dict(instance.schedule)
            assert {"T", "phase", "S0"} <= set(coords)
            assert all(isinstance(v, int) for v in coords.values())


def test_coverage_findings_report_unclaimed_points():
    canonical, model = _small_model()
    mutated = get_mutation("shrunk-hexagon-upper").apply(model)
    verdict = verify_hybrid(canonical, mutated)
    assert not verdict.coverage_ok
    assert not verdict.ok
    assert any(race.level == "coverage" for race in verdict.races)


def test_misaligned_statement_slots_are_rejected():
    canonical, model = _small_model()
    from repro._record import replace

    # fdtd-style multi-statement programs need (h+1) % k == 0; fake a
    # three-statement model at h=1 to hit the guard.
    bad = replace(model, num_statements=3)
    with pytest.raises(VerificationError):
        verify_hybrid(canonical, bad)


def test_unknown_schedule_objects_are_rejected():
    canonical, _ = _small_model()
    with pytest.raises(VerificationError):
        verify_tiling_plan(canonical, object())


def test_verdict_summary_is_json_shaped():
    verdict = _tiling_verdict("jacobi_1d", "hybrid")
    summary = verdict.summary()
    assert summary["ok"] is True
    assert summary["races"] == []
    assert isinstance(summary["classes_checked"], int)
    assert isinstance(summary["notes"], list)

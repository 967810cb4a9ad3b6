"""Fault-injection harness: every illegal schedule mutant must be caught.

The corpus of :mod:`repro.verify.faults` perturbs the hybrid schedule model
in ways that are known-illegal (wrong phase order, dropped barrier, broken
hexagon geometry, missing skew, ...).  A verifier that misses any of them
has no teeth; this suite pins the kill rate at 100% and the diagnosis at
the exact ordering level each mutation class breaks.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.hybrid import HybridTiling, TileSizes
from repro.verify import (
    HybridScheduleModel,
    get_mutation,
    mutation_corpus,
    verify_hybrid,
)

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden"


def _model(name, sizes, steps, h, widths):
    canonical = canonicalize(get_stencil(name, sizes=sizes, steps=steps))
    tiling = HybridTiling(canonical, TileSizes(h, widths))
    return canonical, HybridScheduleModel.from_tiling(tiling)


#: (stencil, sizes, steps, h, widths, inner_dims) targets for the harness.
TARGETS = {
    "jacobi_1d": ((24,), 6, 1, (4,), 0),
    "jacobi_2d": ((12, 12), 4, 1, (2, 4), 1),
    "heat_3d": ((8, 8, 8), 4, 1, (2, 4, 5), 2),
}


def _cases():
    for name, (sizes, steps, h, widths, inner) in TARGETS.items():
        for mutation in mutation_corpus(inner_dims=inner):
            yield pytest.param(
                name, sizes, steps, h, widths, mutation,
                id=f"{name}-{mutation.name}",
            )


def test_the_corpus_is_large_enough():
    assert len(mutation_corpus()) >= 12
    # Every mutation in the full corpus is reachable by name.
    for mutation in mutation_corpus():
        assert get_mutation(mutation.name) is mutation
    with pytest.raises(KeyError):
        get_mutation("no-such-mutation")


def test_corpus_filtering_drops_inner_tiling_mutants_for_1d():
    filtered = mutation_corpus(inner_dims=0)
    assert all(not m.requires_inner_dims for m in filtered)
    assert len(filtered) < len(mutation_corpus())
    assert len(filtered) >= 9


@pytest.mark.parametrize("name,sizes,steps,h,widths,mutation", _cases())
def test_every_mutant_is_killed_at_the_expected_level(
    name, sizes, steps, h, widths, mutation
):
    canonical, model = _model(name, sizes, steps, h, widths)
    # Sanity: the unmutated schedule passes, so any finding below is the
    # mutation's doing.
    assert verify_hybrid(canonical, model).ok
    verdict = verify_hybrid(canonical, mutation.apply(model))
    assert not verdict.ok, f"{mutation.name} survived on {name}"
    assert verdict.races, f"{mutation.name} produced no finding on {name}"
    first = verdict.races[0]
    assert first.level in mutation.expected_levels, (
        f"{mutation.name} on {name}: diagnosed at {first.level!r}, "
        f"expected one of {mutation.expected_levels}"
    )


def test_kill_rate_is_one_hundred_percent():
    killed = 0
    total = 0
    for name, (sizes, steps, h, widths, inner) in TARGETS.items():
        canonical, model = _model(name, sizes, steps, h, widths)
        for mutation in mutation_corpus(inner_dims=inner):
            total += 1
            if not verify_hybrid(canonical, mutation.apply(model)).ok:
                killed += 1
    assert total >= 12
    assert killed == total


def test_every_finding_of_every_mutant_is_pinned():
    """Level and message, counterexample instances included, of each finding."""
    found = {}
    for name, (sizes, steps, h, widths, inner) in TARGETS.items():
        canonical, model = _model(name, sizes, steps, h, widths)
        for mutation in mutation_corpus(inner_dims=inner):
            verdict = verify_hybrid(canonical, mutation.apply(model))
            found[f"{name}/{mutation.name}"] = [
                [race.level, race.message] for race in verdict.races
            ]
    expected = json.loads((GOLDEN / "mutant_findings.json").read_text(encoding="utf-8"))
    assert list(found.items()) == list(expected.items())


# -- per-class exact diagnostics ------------------------------------------------------


def _mutant_verdict(mutation_name, target="jacobi_2d"):
    sizes, steps, h, widths, _ = TARGETS[target]
    canonical, model = _model(target, sizes, steps, h, widths)
    mutated = get_mutation(mutation_name).apply(model)
    return verify_hybrid(canonical, mutated)


def test_phase_swap_races_at_the_phase_level():
    verdict = _mutant_verdict("phase-swap")
    assert {race.level for race in verdict.races} == {"phase"}
    race = verdict.races[0]
    # The witness names the out-of-order kernel launches: the source tile
    # sits in phase 0 but is scheduled after the sink's phase-1 tile.
    assert dict(race.source.schedule)["phase"] != dict(race.sink.schedule)["phase"]
    assert "executes after" in race.message


def test_dropped_barrier_races_at_the_barrier_level():
    verdict = _mutant_verdict("dropped-barrier")
    assert {race.level for race in verdict.races} == {"barrier"}
    race = verdict.races[0]
    assert "no barrier orders local time" in race.message
    # Same tile: every outer schedule coordinate of the witness pair agrees.
    assert race.source.schedule == race.sink.schedule or dict(
        race.source.schedule
    )["T"] == dict(race.sink.schedule)["T"]


def test_flipped_tile_order_races_at_the_intra_tile_level():
    verdict = _mutant_verdict("flipped-tile-order")
    assert {race.level for race in verdict.races} == {"intra_tile"}
    assert "inner" in verdict.races[0].message


def test_shrunk_hexagon_breaks_coverage():
    for name in ("shrunk-hexagon-upper", "shrunk-hexagon-lower"):
        verdict = _mutant_verdict(name)
        assert verdict.coverage_ok is False
        assert any(race.level == "coverage" for race in verdict.races)
        assert "claimed by" in verdict.races[0].message


def test_grown_hexagon_breaks_coverage():
    verdict = _mutant_verdict("grown-hexagon")
    assert verdict.coverage_ok is False
    assert any(race.level == "coverage" for race in verdict.races)


def test_skew_mutants_race_inside_the_inner_tiles():
    for name in ("dropped-skew", "flipped-skew"):
        verdict = _mutant_verdict(name)
        assert not verdict.ok
        assert verdict.races[0].level == "intra_tile"


def test_noop_mutations_are_rejected():
    sizes, steps, h, widths, _ = TARGETS["jacobi_2d"]
    _, model = _model("jacobi_2d", sizes, steps, h, widths)
    dropped = get_mutation("dropped-skew")
    once = dropped.apply(model)
    with pytest.raises(ValueError):
        dropped.apply(once)  # skew already zero: mutation would be a no-op
    sizes, steps, h, widths, _ = TARGETS["jacobi_1d"]
    _, flat = _model("jacobi_1d", sizes, steps, h, widths)
    for mutation in mutation_corpus():
        if mutation.requires_inner_dims:
            with pytest.raises(ValueError):
                mutation.apply(flat)  # no inner dimension to perturb

"""Regression attribution: noise floors, cache flips, guilty passes."""

from __future__ import annotations

import pytest

from repro.obs.attrib import (
    MIN_NOISE_FLOOR_MS,
    Attribution,
    PassSample,
    attribute,
    attribute_entries,
    attribute_records,
    mad,
    samples_from_entry,
)


def test_mad_is_the_median_absolute_deviation():
    assert mad([5.0]) == 0.0  # single samples carry no spread information
    assert mad([1.0, 1.0, 1.0]) == 0.0
    assert mad([1.0, 2.0, 9.0]) == 1.0  # |1-2|, |2-2|, |9-2| -> median 1


def _sample(name, *runs, source="computed"):
    return PassSample(name=name, runs_ms=tuple(runs), source=source)


def test_attribute_names_the_dominant_regressing_pass():
    old = [_sample("parse", 1.0), _sample("tiling", 2.0), _sample("codegen", 3.0)]
    new = [_sample("parse", 1.0), _sample("tiling", 42.0), _sample("codegen", 3.2)]
    attribution = attribute(old, new)
    assert attribution.guilty == "tiling"
    assert attribution.total_delta_ms == pytest.approx(40.2)
    assert attribution.guilty_share == pytest.approx(40.0 / 40.2)
    assert "guilty pass: tiling" in attribution.headline()
    # The per-pass breakdown ranks tiling first.
    assert "tiling" in attribution.describe().splitlines()[1]


def test_deltas_below_the_noise_floor_are_not_guilty():
    old = [_sample("parse", 1.0), _sample("tiling", 2.0)]
    new = [_sample("parse", 1.0 + MIN_NOISE_FLOOR_MS / 2), _sample("tiling", 2.0)]
    attribution = attribute(old, new)
    assert attribution.guilty is None
    assert "no pass clears the noise floor" in attribution.headline()


def test_noisy_passes_need_a_larger_delta_to_be_blamed():
    # tiling's repeats wobble by ~2 ms (MAD 2.0 -> floor ~8.9 ms), so a
    # 3 ms median shift stays within noise; a quiet pass with the same
    # shift would be flagged.
    old = [_sample("tiling", 8.0, 10.0, 12.0, 10.0, 14.0, 6.0)]
    new = [_sample("tiling", 11.0, 13.0, 15.0, 13.0, 17.0, 9.0)]
    attribution = attribute(old, new)
    assert attribution.guilty is None
    quiet = attribute([_sample("memory", 10.0)], [_sample("memory", 13.0)])
    assert quiet.guilty == "memory"


def test_cache_provenance_flips_are_reported_not_blamed():
    old = [_sample("tiling", 0.1, source="disk"), _sample("codegen", 3.0)]
    new = [_sample("tiling", 9.0, source="computed"), _sample("codegen", 3.0)]
    attribution = attribute(old, new)
    assert attribution.guilty is None  # the only mover is a cache flip
    assert attribution.cache_delta_ms == pytest.approx(8.9)
    assert "dominated by cache-tier change" in attribution.headline()
    (tiling,) = [c for c in attribution.contributions if c.name == "tiling"]
    assert tiling.cache_transition
    assert "cache: disk -> computed" in tiling.describe(attribution.total_delta_ms)


def test_blame_only_moves_in_the_direction_of_the_total():
    # codegen got 10 ms faster, parse 2 ms slower; the run is net faster,
    # so the slower pass is not "guilty" of an improvement.
    old = [_sample("parse", 1.0), _sample("codegen", 20.0)]
    new = [_sample("parse", 3.0), _sample("codegen", 10.0)]
    attribution = attribute(old, new)
    assert attribution.total_delta_ms == pytest.approx(-8.0)
    assert attribution.guilty == "codegen"


def test_passes_present_on_one_side_only_still_contribute():
    attribution = attribute([_sample("parse", 1.0)],
                            [_sample("parse", 1.0), _sample("verify", 5.0)])
    (verify,) = [c for c in attribution.contributions if c.name == "verify"]
    assert verify.old_ms == 0.0 and verify.new_ms == 5.0
    assert attribution.guilty == "verify"


def test_samples_from_entry_reads_bench_timings_and_sources():
    entry = {
        "timings": {
            "pass.tiling": {"median": 0.002, "runs": [0.0019, 0.002, 0.0021]},
            "pass.parse": {"median": 0.001},  # runs missing: median fallback
            "junk": "not-a-mapping",
        },
        "sources": {"pass.tiling": {"disk": 2, "computed": 1}},
    }
    samples = {s.name: s for s in samples_from_entry(entry)}
    assert set(samples) == {"tiling", "parse"}
    assert samples["tiling"].runs_ms == (1.9, 2.0, 2.1)
    assert samples["tiling"].source == "disk"  # the dominant provenance
    assert samples["parse"].runs_ms == (1.0,)
    assert samples["parse"].source is None


def test_attribute_entries_requires_timings_on_both_sides():
    with_timings = {"timings": {"pass.parse": {"median": 0.001}}}
    assert attribute_entries({}, with_timings) is None
    assert attribute_entries(with_timings, {}) is None
    assert isinstance(attribute_entries(with_timings, with_timings), Attribution)


def test_attribute_records_uses_history_pass_lists():
    old = {"passes": [{"name": "tiling", "wall_ms": 2.0, "source": "computed"}]}
    new = {"passes": [{"name": "tiling", "wall_ms": 44.0, "source": "computed"}]}
    attribution = attribute_records(old, new)
    assert attribution.guilty == "tiling"
    assert attribute_records({"passes": []}, new) is None


def test_injected_delay_is_attributed_to_the_right_pass(monkeypatch, capsys):
    """The acceptance pin: a deliberate slowdown in the tiling pass is

    attributed to ``tiling`` with the majority share of the delta."""
    from repro.cli import main
    from repro.obs.history import RunHistory

    argv = ["compile", "jacobi_2d", "--no-cache"]
    # The first compile of a process pays the first-use imports of the
    # passes, which would shrink the measured delta; it is not compared.
    assert main(argv) == 0
    assert main(argv) == 0
    monkeypatch.setenv("HEXCC_FAULT_DELAY", "tiling:40")
    assert main(argv) == 0
    old, new = RunHistory().records(kind="compile")[-2:]
    attribution = attribute_records(old.data, new.data)
    assert attribution.guilty == "tiling"
    assert attribution.guilty_share > 0.5
    assert attribution.total_delta_ms > 30.0

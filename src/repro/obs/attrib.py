"""Regression attribution: *which pass* made a run slower, and by how much.

The bench gate (:mod:`repro.bench.compare`) can tell that a stencil's wall
time regressed; this module decomposes the delta into per-pass
contributions using the span-derived per-pass timings already embedded in
``bench --json`` entries (and in run-history compile records), so a gate
failure names the guilty pass instead of just the symptom.

The decomposition is robust, not naive:

* each pass's old/new time is the **median** across repeats;
* a pass only counts as *significant* when its delta clears a per-pass
  noise floor of ``3 × 1.4826 × max(MAD(old runs), MAD(new runs))`` — the
  median absolute deviation scaled to a normal-equivalent sigma, so a
  noisy pass must move further than a quiet one to be blamed;
* cache-provenance flips are split out: when a pass's artifact source
  changed between ``computed`` and a cache tier (``memory``/``disk``),
  its delta is cold-vs-warm-cache behaviour, not a pass regression, and
  is reported as the **cache contribution** instead of as guilt.

The **guilty** pass is the significant, non-cache-flip pass with the
largest delta in the direction of the total change.
"""

from __future__ import annotations

from repro._record import dataclass
from statistics import median
from collections.abc import Mapping, Sequence
from typing import Any

#: 1.4826 × MAD estimates the standard deviation of normal data; three of
#: those is the classic robust outlier fence.
MAD_TO_SIGMA = 1.4826
NOISE_SIGMAS = 3.0
#: Lower bound on any noise floor (ms): single-sample inputs have MAD 0,
#: and even repeated runs wobble by tens of microseconds from scheduling.
MIN_NOISE_FLOOR_MS = 0.05

#: Artifact sources that count as cache hits (vs ``computed``/``injected``).
_CACHE_SOURCES = frozenset({"memory", "disk"})


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation (unscaled)."""
    if len(values) < 2:
        return 0.0
    center = median(values)
    return median(abs(v - center) for v in values)


@dataclass(frozen=True)
class PassSample:
    """One pass's measurements on one side of the comparison (ms)."""

    name: str
    runs_ms: tuple[float, ...]
    source: str | None = None  # dominant artifact provenance, if known

    @property
    def median_ms(self) -> float:
        return median(self.runs_ms) if self.runs_ms else 0.0


@dataclass(frozen=True)
class PassContribution:
    """One pass's share of the total wall-time delta."""

    name: str
    old_ms: float
    new_ms: float
    noise_floor_ms: float
    old_source: str | None = None
    new_source: str | None = None

    @property
    def delta_ms(self) -> float:
        return self.new_ms - self.old_ms

    @property
    def significant(self) -> bool:
        return abs(self.delta_ms) > self.noise_floor_ms

    @property
    def cache_transition(self) -> bool:
        """Did this pass's provenance flip between computed and a cache tier?"""
        if self.old_source is None or self.new_source is None:
            return False
        return (self.old_source in _CACHE_SOURCES) != (
            self.new_source in _CACHE_SOURCES
        )

    def describe(self, total_delta_ms: float) -> str:
        share = (
            f"{self.delta_ms / total_delta_ms:+.0%}" if total_delta_ms else "-"
        )
        line = (
            f"{self.name:<14} {self.old_ms:9.3f} -> {self.new_ms:9.3f} ms"
            f"  ({self.delta_ms:+9.3f} ms, {share})"
        )
        if self.cache_transition:
            line += f"  [cache: {self.old_source} -> {self.new_source}]"
        elif not self.significant:
            line += "  [within noise]"
        return line


@dataclass(frozen=True)
class Attribution:
    """The decomposition of one wall-time delta."""

    old_total_ms: float
    new_total_ms: float
    contributions: tuple[PassContribution, ...]
    guilty: str | None  # pass name, or None when nothing clears the floor
    cache_delta_ms: float  # summed delta of cache-provenance flips

    @property
    def total_delta_ms(self) -> float:
        return self.new_total_ms - self.old_total_ms

    @property
    def guilty_share(self) -> float:
        """The guilty pass's fraction of the total delta (0 when no guilt)."""
        if self.guilty is None or not self.total_delta_ms:
            return 0.0
        for contribution in self.contributions:
            if contribution.name == self.guilty:
                return contribution.delta_ms / self.total_delta_ms
        return 0.0

    def headline(self) -> str:
        """The one-line verdict the CI gate prints next to a regression."""
        direction = "slower" if self.total_delta_ms >= 0 else "faster"
        head = (
            f"attribution: {abs(self.total_delta_ms):.3f} ms {direction} "
            f"({self.old_total_ms:.3f} -> {self.new_total_ms:.3f} ms)"
        )
        if self.guilty is not None:
            head += f"; guilty pass: {self.guilty} ({self.guilty_share:.0%} of delta)"
        elif abs(self.cache_delta_ms) > abs(self.total_delta_ms) / 2:
            head += "; dominated by cache-tier change"
        else:
            head += "; no pass clears the noise floor"
        return head

    def describe(self) -> str:
        lines = [self.headline()]
        ranked = sorted(
            self.contributions, key=lambda c: abs(c.delta_ms), reverse=True
        )
        for contribution in ranked:
            lines.append("  " + contribution.describe(self.total_delta_ms))
        if self.cache_delta_ms:
            lines.append(
                f"  cache-tier contribution: {self.cache_delta_ms:+.3f} ms"
            )
        return "\n".join(lines)


def attribute(
    old: Sequence[PassSample], new: Sequence[PassSample]
) -> Attribution:
    """Decompose the delta between two sets of per-pass samples."""
    old_by_name = {sample.name: sample for sample in old}
    new_by_name = {sample.name: sample for sample in new}
    names = list(old_by_name)
    names += [name for name in new_by_name if name not in old_by_name]

    contributions: list[PassContribution] = []
    for name in names:
        old_sample = old_by_name.get(name)
        new_sample = new_by_name.get(name)
        floor = max(
            MIN_NOISE_FLOOR_MS,
            NOISE_SIGMAS
            * MAD_TO_SIGMA
            * max(
                mad(old_sample.runs_ms) if old_sample else 0.0,
                mad(new_sample.runs_ms) if new_sample else 0.0,
            ),
        )
        contributions.append(
            PassContribution(
                name=name,
                old_ms=old_sample.median_ms if old_sample else 0.0,
                new_ms=new_sample.median_ms if new_sample else 0.0,
                noise_floor_ms=floor,
                old_source=old_sample.source if old_sample else None,
                new_source=new_sample.source if new_sample else None,
            )
        )

    old_total = sum(c.old_ms for c in contributions)
    new_total = sum(c.new_ms for c in contributions)
    total_delta = new_total - old_total
    cache_delta = sum(c.delta_ms for c in contributions if c.cache_transition)

    guilty: str | None = None
    guilty_delta = 0.0
    for contribution in contributions:
        if not contribution.significant or contribution.cache_transition:
            continue
        # Blame only movement in the direction of the total change.
        if total_delta >= 0 and contribution.delta_ms <= 0:
            continue
        if total_delta < 0 and contribution.delta_ms >= 0:
            continue
        if abs(contribution.delta_ms) > abs(guilty_delta):
            guilty = contribution.name
            guilty_delta = contribution.delta_ms

    return Attribution(
        old_total_ms=old_total,
        new_total_ms=new_total,
        contributions=tuple(contributions),
        guilty=guilty,
        cache_delta_ms=cache_delta,
    )


def _dominant_source(counts: Mapping[str, Any] | None) -> str | None:
    if not isinstance(counts, Mapping) or not counts:
        return None
    return max(counts.items(), key=lambda item: (int(item[1]), item[0]))[0]


def samples_from_entry(entry: Mapping[str, Any]) -> list[PassSample]:
    """Per-pass samples from one ``bench --json`` compile-suite entry.

    Uses the ``timings`` block (``pass.<name>`` → runs in seconds) and the
    ``sources`` provenance counts when present; entries without per-pass
    timings (e.g. the simulate suite) yield an empty list.
    """
    timings = entry.get("timings")
    if not isinstance(timings, Mapping):
        return []
    sources = entry.get("sources")
    samples: list[PassSample] = []
    for key, stats in timings.items():
        if not isinstance(stats, Mapping):
            continue
        name = key[5:] if key.startswith("pass.") else key
        runs = stats.get("runs")
        if not isinstance(runs, Sequence) or not runs:
            runs = [stats.get("median", 0.0)]
        samples.append(
            PassSample(
                name=name,
                runs_ms=tuple(float(r) * 1e3 for r in runs),
                source=_dominant_source(
                    sources.get(key) if isinstance(sources, Mapping) else None
                ),
            )
        )
    return samples


def attribute_entries(
    old_entry: Mapping[str, Any], new_entry: Mapping[str, Any]
) -> Attribution | None:
    """Attribution between two bench entries; ``None`` without pass timings."""
    old_samples = samples_from_entry(old_entry)
    new_samples = samples_from_entry(new_entry)
    if not old_samples or not new_samples:
        return None
    return attribute(old_samples, new_samples)


def samples_from_record(data: Mapping[str, Any]) -> list[PassSample]:
    """Per-pass samples from one run-history ``compile`` record."""
    samples: list[PassSample] = []
    for item in data.get("passes", ()):
        if not isinstance(item, Mapping) or "name" not in item:
            continue
        samples.append(
            PassSample(
                name=str(item["name"]),
                runs_ms=(float(item.get("wall_ms", 0.0)),),
                source=item.get("source"),
            )
        )
    return samples


def attribute_records(
    old_data: Mapping[str, Any], new_data: Mapping[str, Any]
) -> Attribution | None:
    """Attribution between two history compile records (single samples)."""
    old_samples = samples_from_record(old_data)
    new_samples = samples_from_record(new_data)
    if not old_samples or not new_samples:
        return None
    return attribute(old_samples, new_samples)

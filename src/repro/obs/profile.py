"""Inclusive/exclusive time aggregation over a span tree (``hexcc profile``).

*Inclusive* time is a span's full wall duration; *exclusive* time subtracts
the inclusive time of its direct children — the time spent in the region
itself.  For a single-process trace the exclusive times of all spans sum to
the inclusive time of the roots (total wall time), which is what makes the
ranking trustworthy: nothing is double-counted, nothing is hidden.

A hand-assembled trace whose children overlap (their durations sum past
the parent's) would push the parent's naive exclusive time negative; it is
clamped at zero.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro._record import dataclass
from repro.obs.spans import Span


@dataclass(frozen=True)
class ProfileRow:
    """Aggregated timing of every span sharing one name."""

    name: str
    count: int
    inclusive_s: float
    exclusive_s: float


def total_wall_s(spans: Sequence[Span]) -> float:
    """Sum of the root spans' durations (the trace's total wall time)."""
    ids = {span.span_id for span in spans}
    return sum(
        span.duration_s
        for span in spans
        if span.parent_id is None or span.parent_id not in ids
    )


def profile_rows(spans: Sequence[Span]) -> list[ProfileRow]:
    """Aggregate spans by name, ranked by exclusive time (descending)."""
    child_ns: dict[str, int] = {}
    ids = {span.span_id for span in spans}
    for span in spans:
        if span.parent_id in ids:
            child_ns[span.parent_id] = (
                child_ns.get(span.parent_id, 0) + span.duration_ns
            )
    totals: dict[str, list[float]] = {}  # name -> [count, inclusive, exclusive]
    for span in spans:
        exclusive_ns = max(0, span.duration_ns - child_ns.get(span.span_id, 0))
        entry = totals.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration_ns / 1e9
        entry[2] += exclusive_ns / 1e9
    rows = [
        ProfileRow(name=name, count=int(c), inclusive_s=i, exclusive_s=e)
        for name, (c, i, e) in totals.items()
    ]
    rows.sort(key=lambda row: (-row.exclusive_s, row.name))
    return rows


def format_profile(rows: Sequence[ProfileRow], total_s: float) -> str:
    """The human table behind ``hexcc profile``."""
    lines = [
        f"{'span':<24} {'count':>6} {'inclusive':>12} {'exclusive':>12} {'excl %':>7}"
    ]
    for row in rows:
        share = row.exclusive_s / total_s if total_s > 0 else 0.0
        lines.append(
            f"{row.name:<24} {row.count:>6} {row.inclusive_s * 1e3:>9.3f} ms "
            f"{row.exclusive_s * 1e3:>9.3f} ms {share:>6.1%}"
        )
    accounted = sum(row.exclusive_s for row in rows)
    lines.append(
        f"{'total':<24} {'':>6} {total_s * 1e3:>9.3f} ms "
        f"{accounted * 1e3:>9.3f} ms {accounted / total_s if total_s > 0 else 0.0:>6.1%}"
    )
    return "\n".join(lines)

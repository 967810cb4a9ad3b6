"""Tuned-vs-model comparison table (``hexcc tune-table``).

Every tuning-database entry records both the tile sizes the search found
and the §3.7 model-selected baseline, each with its score, so the
comparison needs no recompilation: the table is a pure view of the
database, deterministic and instant.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from repro.tuning.db import TuningDatabase


def _sort_key(entry: Mapping[str, Any]) -> tuple[str, str, str, str]:
    return (
        entry.get("program", ""),
        entry.get("device", ""),
        entry.get("objective", ""),
        entry.get("strategy", ""),
    )


def tuned_rows(db: TuningDatabase, device: str | None = None) -> list[dict[str, Any]]:
    """One row per database entry (optionally filtered by device name)."""
    rows = []
    for entry in sorted(db, key=_sort_key):
        if device is not None and entry.get("device") != device:
            continue
        best = entry.get("best", {})
        baseline = entry.get("baseline", {})
        model_score = float(baseline.get("score", float("inf")))
        tuned_score = float(best.get("score", float("inf")))
        rows.append(
            {
                "program": entry.get("program", "?"),
                "device": entry.get("device", "?"),
                "strategy": entry.get("strategy", "?"),
                "objective": entry.get("objective", "?"),
                "model_config": _config_text(baseline),
                "model_score": model_score,
                "tuned_config": _config_text(best),
                "tuned_score": tuned_score,
                "speedup": model_score / tuned_score if tuned_score > 0 else 1.0,
            }
        )
    return rows


def _config_text(candidate: Mapping[str, Any]) -> str:
    widths = ",".join(str(w) for w in candidate.get("widths", []))
    return f"h={candidate.get('height', '?')} w={widths}"


def format_tuned_table(rows: Iterable[Mapping[str, Any]]) -> str:
    """Render the comparison as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "tuning database is empty (run `hexcc tune <stencil>` first)"
    header = (
        f"{'stencil':<18} {'device':<10} {'strategy':<10} {'objective':<9} "
        f"{'model config':<22} {'model':>10} {'tuned config':<22} "
        f"{'tuned':>10} {'speedup':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['program']:<18} {row['device']:<10} {row['strategy']:<10} "
            f"{row['objective']:<9} {row['model_config']:<22} "
            f"{row['model_score']:>10.4g} {row['tuned_config']:<22} "
            f"{row['tuned_score']:>10.4g} {row['speedup']:>7.3f}x"
        )
    return "\n".join(lines)

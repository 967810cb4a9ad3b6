"""Experiment harnesses regenerating every table and figure of the paper.

Each module returns plain data structures (lists of row dictionaries) plus a
formatter, so the same code backs the pytest benchmarks in ``benchmarks/``
and the examples.
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    "PAPER_TABLE1_GTX470": "repro.experiments.paper_data",
    "PAPER_TABLE2_NVS5200": "repro.experiments.paper_data",
    "PAPER_TABLE4": "repro.experiments.paper_data",
    "PAPER_TABLE5": "repro.experiments.paper_data",
    "PAPER_TILE_SIZES": "repro.experiments.paper_data",
    "table3_characteristics": "repro.experiments.characteristics",
    "format_table3": "repro.experiments.characteristics",
    "ComparisonRow": "repro.experiments.comparison",
    "run_comparison": "repro.experiments.comparison",
    "format_comparison": "repro.experiments.comparison",
    "run_ablation": "repro.experiments.ablation",
    "run_counter_ablation": "repro.experiments.ablation",
    "format_table4": "repro.experiments.ablation",
    "format_table5": "repro.experiments.ablation",
    "figure2_core_ptx": "repro.experiments.figures",
    "figure3_dependence_cone": "repro.experiments.figures",
    "figure4_hexagon": "repro.experiments.figures",
    "figure5_tiling_pattern": "repro.experiments.figures",
    "figure6_schedule": "repro.experiments.figures",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

"""Tiling algorithms: hexagonal, classical, hybrid and diamond.

This package implements Section 3 of the paper:

* :mod:`repro.tiling.cone` — opposite dependence cone and the slopes
  ``δ0``/``δ1`` (Section 3.3.2, Figure 3);
* :mod:`repro.tiling.hexagon` — the hexagonal tile shape, its constraints and
  the minimal-width condition (equation (1), Figure 4);
* :mod:`repro.tiling.hex_schedule` — the two-phase hexagonal tile schedule
  (equations (2)–(5), Figure 5);
* :mod:`repro.tiling.classical` — classical (parallelogram) tiling of the
  remaining space dimensions (equations (14)–(16));
* :mod:`repro.tiling.hybrid` — the combined hybrid schedule (Section 3.6,
  Figure 6) including intra-tile schedules (Section 3.5);
* :mod:`repro.tiling.tile_size` — load-to-compute based tile-size selection
  (Section 3.7);
* :mod:`repro.tiling.diamond` — diamond tiling, used for the qualitative
  comparison of Section 5;
* :mod:`repro.tiling.validate` — legality, coverage and parallelism checks.
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    "DependenceCone": "repro.tiling.cone",
    "HexagonalTileShape": "repro.tiling.hexagon",
    "HexagonalSchedule": "repro.tiling.hex_schedule",
    "Phase": "repro.tiling.hex_schedule",
    "ClassicalTiling": "repro.tiling.classical",
    "HybridTiling": "repro.tiling.hybrid",
    "TileCoordinate": "repro.tiling.hybrid",
    "TileSizes": "repro.tiling.hybrid",
    "TileSizeModel": "repro.tiling.tile_size",
    "select_tile_sizes": "repro.tiling.tile_size",
    "DiamondTiling": "repro.tiling.diamond",
    "ScheduleValidationError": "repro.tiling.validate",
    "check_coverage": "repro.tiling.validate",
    "check_legality": "repro.tiling.validate",
    "check_tile_uniformity": "repro.tiling.validate",
    "validate_hybrid_tiling": "repro.tiling.validate",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

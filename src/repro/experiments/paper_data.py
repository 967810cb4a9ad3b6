"""Numbers reported in the paper, kept for side-by-side comparison.

These are transcribed from Tables 1, 2, 4 and 5 of the paper and are used by
the benchmarks to compare the *shape* of our model's results (who wins, by
roughly what factor) against the published results.
They are never used as inputs to the model.
"""

from __future__ import annotations

from repro.tiling.hybrid import TileSizes

# Table 1: GStencils/second on the GTX 470.
PAPER_TABLE1_GTX470: dict[str, dict[str, float | None]] = {
    "laplacian_2d": {"ppcg": 5.4, "par4all": 7.0, "overtile": 10.6, "hybrid": 15.0},
    "heat_2d": {"ppcg": 5.1, "par4all": 5.4, "overtile": 6.9, "hybrid": 15.0},
    "gradient_2d": {"ppcg": 3.9, "par4all": 5.5, "overtile": 6.7, "hybrid": 7.3},
    "fdtd_2d": {"ppcg": 0.76, "par4all": None, "overtile": 5.3, "hybrid": 7.3},
    "laplacian_3d": {"ppcg": 2.0, "par4all": 2.0, "overtile": 3.1, "hybrid": 4.3},
    "heat_3d": {"ppcg": 1.8, "par4all": 1.9, "overtile": 2.6, "hybrid": 3.9},
    "gradient_3d": {"ppcg": 2.1, "par4all": 3.1, "overtile": 3.6, "hybrid": 3.6},
}

# Table 2: GStencils/second on the NVS 5200M.
PAPER_TABLE2_NVS5200: dict[str, dict[str, float | None]] = {
    "laplacian_2d": {"ppcg": 1.0, "par4all": 1.1, "overtile": 2.1, "hybrid": 3.2},
    "heat_2d": {"ppcg": 0.97, "par4all": 0.79, "overtile": 1.5, "hybrid": 2.9},
    "gradient_2d": {"ppcg": 0.61, "par4all": 0.9, "overtile": 1.1, "hybrid": 1.4},
    "fdtd_2d": {"ppcg": 0.098, "par4all": None, "overtile": 0.9, "hybrid": 1.0},
    "laplacian_3d": {"ppcg": 0.32, "par4all": 0.34, "overtile": 0.66, "hybrid": 0.91},
    "heat_3d": {"ppcg": 0.29, "par4all": 0.35, "overtile": 0.37, "hybrid": 0.73},
    "gradient_3d": {"ppcg": 0.32, "par4all": 0.69, "overtile": 0.61, "hybrid": 0.73},
}

# Table 4: GFLOPS of the heat 3D kernel for the optimisation steps (a)-(f).
PAPER_TABLE4: dict[str, dict[str, float]] = {
    "NVS 5200M": {"a": 8, "b": 8, "c": 11, "d": 12, "e": 11, "f": 19},
    "GTX 470": {"a": 39, "b": 44, "c": 65, "d": 70, "e": 73, "f": 105},
}

# Table 5: performance counters (events x 1e9, shared loads/request, efficiency %).
PAPER_TABLE5: dict[str, dict[str, float | None]] = {
    "a": {"gld": 171.0, "dram": 1.7, "l2": 12.0, "shared_per_request": None, "gld_eff": 54.0},
    "b": {"gld": 8.7, "dram": 1.8, "l2": 1.4, "shared_per_request": 1.0, "gld_eff": 30.0},
    "c": {"gld": 8.7, "dram": 1.8, "l2": 1.4, "shared_per_request": 1.0, "gld_eff": 30.0},
    "d": {"gld": 8.8, "dram": 1.0, "l2": 0.95, "shared_per_request": 1.0, "gld_eff": 56.0},
    "e": {"gld": 7.6, "dram": 0.97, "l2": 0.49, "shared_per_request": 1.8, "gld_eff": 100.0},
    "f": {"gld": 7.6, "dram": 0.95, "l2": 0.48, "shared_per_request": 1.0, "gld_eff": 100.0},
}

# Tile sizes used for the headline comparison.  The 2D single-statement
# kernels run 8 time steps per tile (2h+2 = 8), the 3D kernels 4 per tile,
# heat 3D uses the configuration of Table 4 (h=2, w=(7,10,32), 1x10x32
# threads), and fdtd's h is chosen so h+1 is a multiple of its 3 statements.
PAPER_TILE_SIZES: dict[str, TileSizes] = {
    "jacobi_2d": TileSizes.of(3, 4, 64),
    "laplacian_2d": TileSizes.of(3, 4, 64),
    "heat_2d": TileSizes.of(3, 4, 64),
    "gradient_2d": TileSizes.of(3, 4, 64),
    "fdtd_2d": TileSizes.of(5, 4, 64),
    "laplacian_3d": TileSizes.of(1, 3, 8, 32),
    "heat_3d": TileSizes.of(2, 7, 10, 32),
    "gradient_3d": TileSizes.of(1, 3, 8, 32),
}

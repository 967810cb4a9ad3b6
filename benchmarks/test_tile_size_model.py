"""Section 3.7: the load-to-compute tile-size model and its closed form.

Also covers the running-text claims of Section 6.1: the selected tile sizes
execute 8 time steps per tile for the 2D kernels and 4 for the 3D kernels,
and the Table 4 configuration fits the 48 KB of shared memory.
"""

from conftest import run_once

from repro.experiments.paper_data import PAPER_TILE_SIZES
from repro.gpu.device import GTX470
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.hybrid import TileSizes
from repro.tiling.tile_size import TileSizeModel, select_tile_sizes


def _sweep():
    canonical = canonicalize(get_stencil("heat_3d"))
    model = TileSizeModel(canonical)
    rows = []
    for h in (1, 2, 3):
        for w0 in (3, 7, 11):
            sizes = TileSizes.of(h, w0, 10, 32)
            estimate = model.estimate(sizes)
            rows.append(
                {
                    "h": h,
                    "w0": w0,
                    "iterations": estimate.iterations,
                    "closed_form": model.closed_form_iterations_3d(sizes),
                    "loads": estimate.loads,
                    "ratio": estimate.load_to_compute,
                    "shared_bytes": estimate.shared_memory_bytes,
                }
            )
    best = select_tile_sizes(canonical, GTX470)
    return rows, best


def test_tile_size_model(benchmark):
    rows, best = run_once(benchmark, _sweep)
    print()
    print(f"{'h':>3}{'w0':>4}{'iters':>9}{'loads':>9}{'ratio':>8}{'shared':>9}")
    for row in rows:
        print(
            f"{row['h']:>3}{row['w0']:>4}{row['iterations']:>9}{row['loads']:>9}"
            f"{row['ratio']:>8.3f}{row['shared_bytes']:>9}"
        )
    print(f"selected by the search: {best.sizes} (ratio {best.load_to_compute:.3f})")

    # The exact enumeration matches the paper's closed form everywhere.
    for row in rows:
        assert row["iterations"] == row["closed_form"]
    # Larger tiles improve the load-to-compute ratio (until shared memory runs out).
    assert rows[-1]["ratio"] < rows[0]["ratio"]
    # The search result respects the hardware constraints of Section 3.7.
    assert best.shared_memory_bytes <= 48 * 1024
    assert best.sizes.widths[-1] % 32 == 0

    # Section 6.1: the paper's tile-size choices give 8 time steps per tile in
    # 2D and 4 in 3D; Table 4's heat-3D configuration fits in shared memory.
    assert 2 * PAPER_TILE_SIZES["heat_2d"].height + 2 == 8
    assert 2 * PAPER_TILE_SIZES["laplacian_3d"].height + 2 == 4
    model = TileSizeModel(canonicalize(get_stencil("heat_3d")))
    assert model.estimate(PAPER_TILE_SIZES["heat_3d"]).shared_memory_bytes <= 48 * 1024

"""Figures 2-6: the paper's illustrative figures, regenerated as data.

* Figure 2 — the tuned PTX core block of the Jacobi 2D kernel;
* Figure 3 — the opposite dependence cone of the Section 3.3.2 example;
* Figure 4 — the hexagonal tile shape for h=2, w0=3;
* Figure 5 — the two-phase tiling pattern and its parallel wavefronts;
* Figure 6 — the closed-form hybrid schedule for ±1 dependence distances.
"""

from fractions import Fraction

from conftest import run_once

from repro.experiments import (
    figure2_core_ptx,
    figure3_dependence_cone,
    figure4_hexagon,
    figure5_tiling_pattern,
    figure6_schedule,
)


def test_figure2_ptx_core(benchmark):
    summary = run_once(benchmark, figure2_core_ptx)
    print()
    print(summary.text)
    # "only 3 shared memory loads and 1 store for 5 compute instructions,
    #  ... 2 of the 5 values in flight are being reused in registers"
    assert summary.shared_loads == 3
    assert summary.shared_stores == 1
    assert summary.arithmetic == 5
    assert summary.registers_reused == 2


def test_figure3_dependence_cone(benchmark):
    data = run_once(benchmark, figure3_dependence_cone)
    print()
    print(f"distance vectors: {data['distance_vectors']}")
    print(f"delta0 = {data['delta0']}, delta1 = {data['delta1']}")
    assert set(map(tuple, data["distance_vectors"])) == {(1, -2), (2, 2)}
    assert data["delta0"] == Fraction(1)
    assert data["delta1"] == Fraction(2)


def test_figure4_hexagon_shape(benchmark):
    data = run_once(benchmark, figure4_hexagon)
    print()
    print(data["ascii"])
    assert data["points"] == 36            # 2(1+2h+h²+w0(h+1)) for h=2, w0=3
    assert data["peak_width"] == 4          # w0 + 1
    assert data["max_width"] == 8           # w0 + 1 + ⌊δ0h⌋ + ⌊δ1h⌋
    assert data["time_period"] == 6         # 2h + 2
    assert data["space_period"] == 12       # 2w0 + 2 + ⌊δ0h⌋ + ⌊δ1h⌋


def test_figure5_tiling_pattern(benchmark):
    data = run_once(benchmark, figure5_tiling_pattern)
    print()
    print(
        f"blue tiles: {data['blue_tiles']}, green tiles: {data['green_tiles']}, "
        f"points per full tile: {data['points_per_full_tile']}"
    )
    assert data["blue_tiles"] > 0 and data["green_tiles"] > 0
    # Tiles of the same phase form parallel wavefronts with several tiles each.
    assert max(data["parallel_tiles_per_wavefront"].values()) >= 3


def test_figure6_schedule_form(benchmark):
    expressions = run_once(benchmark, figure6_schedule)
    print()
    for name in sorted(expressions):
        print(f"{name:>18} = {expressions[name]}")
    # The closed form of Figure 6 (phase 0, δ = 1): T = floord(l + h + 1, 2h+2).
    assert "floord" in expressions["phase0_T"]
    assert "phase0_S1" in expressions and "phase1_S2" in expressions
    # Intra-tile coordinates are modulo expressions.
    assert "%" in expressions["phase0_t_local"]

"""Unit tests for shared-memory planning, kernel IR, CUDA and PTX emission."""

import pytest

from repro.codegen.cuda import CudaCodeGenerator
from repro.codegen.kernel_ir import analyze_core_loop, register_reuse_count
from repro.codegen.ptx import emit_core_ptx
from repro.codegen.shared_mem import plan_shared_memory
from repro.gpu.device import GTX470, NVS5200M
from repro.model.preprocess import canonicalize
from repro.api import OptimizationConfig, Session
from repro.stencils import get_stencil, list_stencils
from repro.tiling.hybrid import HybridTiling, TileSizes


@pytest.fixture(scope="module")
def heat3d_tiling():
    program = get_stencil("heat_3d", sizes=(64, 64, 64), steps=16)
    return HybridTiling(canonicalize(program), TileSizes.of(2, 7, 10, 32))


# -- shared memory plan -----------------------------------------------------------------


def test_plan_footprints_cover_reads(heat3d_tiling):
    plan = plan_shared_memory(heat3d_tiling, OptimizationConfig.default())
    footprint = plan.footprint("A")
    # heat 3D reads a radius-1 box: every extent includes the +/- 1 halo.
    assert all(extent >= width for extent, width in zip(footprint.extents, (12, 15, 37)))
    assert footprint.halo_lower == (1, 1, 1)
    assert footprint.halo_upper == (1, 1, 1)
    assert plan.shared_bytes_per_block <= 48 * 1024


def test_plan_inter_tile_reuse_reduces_loads(heat3d_tiling):
    with_reuse = plan_shared_memory(heat3d_tiling, OptimizationConfig.config_f())
    without = plan_shared_memory(heat3d_tiling, OptimizationConfig.config_d())
    assert with_reuse.loads_per_tile < without.loads_per_tile
    assert with_reuse.reused_per_tile > 0
    assert without.reused_per_tile == 0


def test_plan_dynamic_reuse_has_internal_copy(heat3d_tiling):
    dynamic = plan_shared_memory(heat3d_tiling, OptimizationConfig.config_f())
    static = plan_shared_memory(heat3d_tiling, OptimizationConfig.config_e())
    assert dynamic.internal_copy_elements > 0
    assert static.internal_copy_elements == 0


def test_plan_without_shared_memory(heat3d_tiling):
    plan = plan_shared_memory(heat3d_tiling, OptimizationConfig.config_a())
    assert plan.shared_bytes_per_block == 0
    assert not plan.uses_shared_memory


@pytest.mark.parametrize("name", list_stencils())
def test_plan_shared_bytes_match_the_model(name):
    # The planner and the §3.7 model size the footprint box with one helper.
    for device in (GTX470, NVS5200M):
        run = Session(device).run(get_stencil(name), stop_after="memory")
        model_bytes = run.artifact("tiling").tile_cost.shared_memory_bytes
        assert run.artifact("memory").plan.shared_bytes_per_block == model_bytes


def test_plan_multi_field_program():
    program = get_stencil("fdtd_2d", sizes=(64, 64), steps=8)
    tiling = HybridTiling(canonicalize(program), TileSizes.of(2, 4, 32))
    plan = plan_shared_memory(tiling, OptimizationConfig.default())
    assert {f.field for f in plan.footprints} == {"ex", "ey", "hz"}


# -- kernel IR / register reuse ------------------------------------------------------------


def test_register_reuse_jacobi():
    """Figure 2: 2 of the 5 Jacobi operands stay in registers."""
    program = get_stencil("jacobi_2d", sizes=(32, 32), steps=4)
    assert register_reuse_count(program.statements[0]) == 2


def test_register_reuse_heat_box_stencils():
    heat2d = get_stencil("heat_2d", sizes=(32, 32), steps=4)
    assert register_reuse_count(heat2d.statements[0]) == 6      # 3x3 box
    heat3d = get_stencil("heat_3d", sizes=(16, 16, 16), steps=2)
    assert register_reuse_count(heat3d.statements[0]) == 18     # 3x3x3 box


def test_core_profile_unrolled_cheaper_than_rolled():
    program = get_stencil("heat_2d", sizes=(32, 32), steps=4)
    unrolled = analyze_core_loop(program, unroll=True)[0]
    rolled = analyze_core_loop(program, unroll=False)[0]
    assert unrolled.instructions_per_point < rolled.instructions_per_point
    assert unrolled.loads_after_reuse < rolled.loads_total


def test_core_profile_flops_match_statement():
    program = get_stencil("gradient_2d", sizes=(32, 32), steps=4)
    profile = analyze_core_loop(program)[0]
    assert profile.flops == program.statements[0].flops == 15


# -- pseudo PTX ---------------------------------------------------------------------------


def test_figure2_ptx_instruction_mix():
    """3 shared loads, 1 store, 5 arithmetic ops for the Jacobi 2D core."""
    program = get_stencil("jacobi_2d", sizes=(32, 32), steps=4)
    summary = emit_core_ptx(program)
    assert summary.shared_loads == 3
    assert summary.shared_stores == 1
    assert summary.arithmetic == 5
    assert summary.registers_reused == 2
    assert "ld.shared.f32" in summary.text
    assert "st.shared.f32" in summary.text


def test_ptx_for_multi_statement_kernel():
    program = get_stencil("fdtd_2d", sizes=(32, 32), steps=4)
    summary = emit_core_ptx(program, "Shz")
    assert summary.shared_loads + summary.registers_reused == 5


# -- CUDA source --------------------------------------------------------------------------


def test_cuda_source_structure(heat3d_tiling):
    config = OptimizationConfig.default()
    plan = plan_shared_memory(heat3d_tiling, config)
    source = CudaCodeGenerator(heat3d_tiling, plan, config).generate()
    assert "__global__ void heat_3d_phase0" in source
    assert "__global__ void heat_3d_phase1" in source
    assert "__shared__ float" in source
    assert "__syncthreads()" in source
    assert "blockIdx.x" in source
    assert "cudaMemcpy" in source
    assert "floord" in source
    # Both kernels launched from the host loop.
    assert source.count("<<<grid, block>>>") == 2


def test_cuda_source_no_shared_memory_configuration(heat3d_tiling):
    config = OptimizationConfig.config_a()
    plan = plan_shared_memory(heat3d_tiling, config)
    source = CudaCodeGenerator(heat3d_tiling, plan, config).generate()
    assert "__shared__ float" not in source
    assert "no explicit shared memory" in source


def test_cuda_source_separate_copy_out(heat3d_tiling):
    config = OptimizationConfig.config_b()
    plan = plan_shared_memory(heat3d_tiling, config)
    source = CudaCodeGenerator(heat3d_tiling, plan, config).generate()
    assert "separate copy-out phase" in source


def test_cuda_source_balanced_braces(heat3d_tiling):
    config = OptimizationConfig.default()
    plan = plan_shared_memory(heat3d_tiling, config)
    source = CudaCodeGenerator(heat3d_tiling, plan, config).generate()
    assert source.count("{") == source.count("}")

"""The generated-CUDA static linter: clean on the compiler, loud on bugs."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.api import (
    Session,
    get_stencil,
    list_stencils,
    table4_configurations,
)
from repro.gpu.device import get_device
from repro.verify import lint_cuda

#: ``LintReport.summary()`` of the verify pass for each library kernel
#: (``<stencil>/<device>``, 11 stencils on the GTX 470 and the NVS 5200M),
#: recorded before any rewrite of the lint: a rewrite must reproduce it.
LINT_REPORTS = pathlib.Path(__file__).resolve().parents[1] / "golden/lint_reports.json"

#: A deliberately broken kernel exercising every rule family with known spans.
BAD_KERNEL = """\
#define N 512
__global__ void bad_kernel(int T, float *A) {
    __shared__ float tile[32][33];
    __shared__ float conflicted[32][32];
    int row = threadIdx.y;
    int col = threadIdx.x;
    conflicted[col][0] = A[col];
    tile[row][32] = 0.0f;
    tile[33][col] = 1.0f;
    for (int i = 0; i < 40; ++i) {
        tile[i][col] = 2.0f;
    }
    if (threadIdx.x < 16) {
        __syncthreads();
    }
    A[global_index(col, row)] = tile[row][col];
    A[2 * col] = tile[row][col];
}
"""


def _generated_source(name, config=None, strategy="hybrid"):
    run = Session(strategy=strategy).run(
        get_stencil(name), config=config, stop_after="codegen"
    )
    return run.artifact("codegen").cuda_source, run


@pytest.mark.parametrize("name", list_stencils())
def test_library_codegen_is_lint_clean(name):
    source, run = _generated_source(name)
    report = lint_cuda(
        source,
        plan=run.artifact("memory").plan,
        device=run.request.device,
    )
    assert report.errors == ()
    assert report.warnings == ()
    assert report.kernels  # the scan actually entered the kernels
    assert report.lines_scanned > 0


@pytest.mark.parametrize("device", ["gtx470", "nvs5200m"])
@pytest.mark.parametrize("name", list_stencils())
def test_library_lint_reports_are_pinned(name, device):
    expected = json.loads(LINT_REPORTS.read_text(encoding="utf-8"))
    assert len(expected) == 2 * len(list_stencils())
    run = Session(device=get_device(device)).run(get_stencil(name), stop_after="verify")
    assert run.artifact("verify").lint.summary() == expected[f"{name}/{device}"]


@pytest.mark.parametrize("label", sorted(table4_configurations()))
def test_every_optimization_config_is_lint_clean(label):
    config = table4_configurations()[label]
    source, run = _generated_source("jacobi_2d", config=config)
    report = lint_cuda(source, plan=run.artifact("memory").plan)
    assert report.errors == ()
    assert report.warnings == ()


def test_bad_fixture_flags_every_rule_family():
    report = lint_cuda(BAD_KERNEL)
    assert not report.ok
    rules = {finding.rule for finding in report.findings}
    assert {
        "shared-bank-conflict", "shared-oob", "sync-divergence",
        "global-uncoalesced",
    } <= rules
    assert report.kernels == ("bad_kernel",)


def test_bank_conflict_severity_and_span():
    report = lint_cuda(BAD_KERNEL)
    (conflict,) = [f for f in report.findings if f.rule == "shared-bank-conflict"]
    assert conflict.severity == "error"  # 32-way replay is >= the error bar
    assert conflict.line == 7
    assert "stride 32" in conflict.message
    assert "conflicted" in conflict.snippet


def test_oob_findings_cover_literal_and_loop_bound_indices():
    report = lint_cuda(BAD_KERNEL)
    oob = sorted(
        (f for f in report.findings if f.rule == "shared-oob"),
        key=lambda f: f.line,
    )
    assert [f.line for f in oob] == [9, 11]
    assert "reaches 33" in oob[0].message  # literal index 33, extent 32
    assert "reaches 39" in oob[1].message  # loop bound 40, extent 32
    # In-bounds sibling on the other axis (tile[row][32] with extent 33)
    # must stay silent: only provable violations are reported.
    assert all(f.line != 8 for f in report.findings)


def test_divergent_sync_names_the_divergent_branch():
    report = lint_cuda(BAD_KERNEL)
    (sync,) = [f for f in report.findings if f.rule == "sync-divergence"]
    assert sync.severity == "error"
    assert sync.line == 14
    assert "line 13" in sync.message  # points back at the divergent if


def test_uncoalesced_warnings_do_not_fail_the_report():
    uncoalesced = """\
__global__ void k(int T, float *A) {
    int col = threadIdx.x;
    int row = threadIdx.y;
    A[global_index(col, row)] = 1.0f;
    A[2 * col] = 2.0f;
}
"""
    report = lint_cuda(uncoalesced)
    assert {f.rule for f in report.findings} == {"global-uncoalesced"}
    assert all(f.severity == "warning" for f in report.findings)
    assert report.ok  # warnings alone never fail a build


def test_uniform_control_flow_sync_is_legal():
    source = """\
__global__ void k(int T, float *A) {
    for (int step = 0; step < 8; ++step) {
        if (step < T) {
            __syncthreads();
        }
    }
    __syncthreads();
}
"""
    report = lint_cuda(source)
    assert report.findings == ()


def test_shared_capacity_cross_check_uses_plan_and_device():
    from repro.gpu.device import GTX470

    class OverfullPlan:
        shared_bytes_per_block = GTX470.shared_memory_per_sm + 1

    report = lint_cuda("__global__ void k(float *A) { A[0] = 0.0f; }",
                       plan=OverfullPlan(), device=GTX470)
    assert any(f.rule == "shared-capacity" for f in report.errors)
    assert GTX470.name in report.errors[0].message

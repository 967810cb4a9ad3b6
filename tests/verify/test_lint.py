"""The generated-CUDA static linter: clean on the compiler, loud on bugs."""

from __future__ import annotations

import functools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from lint_oracle import lint_cuda as lint_by_character

from repro.api import (
    Session,
    get_stencil,
    list_stencils,
    table4_configurations,
)
from repro.gpu.device import get_device
from repro.verify import lint_cuda

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

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


#: Only global-uncoalesced warnings: through an address helper and a stride.
UNCOALESCED_KERNEL = """\
__global__ void k(int T, float *A) {
    int col = threadIdx.x;
    int row = threadIdx.y;
    A[global_index(col, row)] = 1.0f;
    A[2 * col] = 2.0f;
}
"""

#: Barriers under uniform control flow only: no finding.
UNIFORM_SYNC_KERNEL = """\
__global__ void k(int T, float *A) {
    for (int step = 0; step < 8; ++step) {
        if (step < T) {
            __syncthreads();
        }
    }
    __syncthreads();
}
"""

#: Four stride-2 accesses to four pointers on one line.
FOUR_POINTERS_KERNEL = (
    "__global__ void k(float *out, float *in, float *aux, float *zed) "
    "{ int i = threadIdx.x * 2; out[i] = in[i] + aux[i] + zed[i]; }"
)


def test_uncoalesced_warnings_do_not_fail_the_report():
    report = lint_cuda(UNCOALESCED_KERNEL)
    assert {f.rule for f in report.findings} == {"global-uncoalesced"}
    assert all(f.severity == "warning" for f in report.findings)
    assert report.ok  # warnings alone never fail a build


def test_uniform_control_flow_sync_is_legal():
    report = lint_cuda(UNIFORM_SYNC_KERNEL)
    assert report.findings == ()


def test_shared_capacity_cross_check_uses_plan_and_device():
    from repro.gpu.device import GTX470

    class OverfullPlan:
        shared_bytes_per_block = GTX470.shared_memory_per_sm + 1

    report = lint_cuda("__global__ void k(float *A) { A[0] = 0.0f; }",
                       plan=OverfullPlan(), device=GTX470)
    assert any(f.rule == "shared-capacity" for f in report.errors)
    assert GTX470.name in report.errors[0].message


def test_findings_are_ordered_by_severity_line_column_and_rule():
    report = lint_cuda(FOUR_POINTERS_KERNEL)
    assert [(f.rule, f.col) for f in report.findings] == [
        ("global-uncoalesced", col) for col in (0, 9, 17, 26)
    ]
    keys = [(f.severity, f.line, f.col, f.rule) for f in lint_cuda(BAD_KERNEL).findings]
    assert keys == sorted(keys)


def test_finding_order_does_not_depend_on_the_hash_seed():
    """Findings on one line used to come out in the order of a ``set``."""
    probe = (
        "import json, sys; from repro.verify import lint_cuda; "
        "print(json.dumps(lint_cuda(sys.stdin.read()).summary()))"
    )
    summaries = [
        subprocess.run(
            [sys.executable, "-c", probe],
            input=FOUR_POINTERS_KERNEL,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert summaries[0] == summaries[1]
    assert len(json.loads(summaries[0])["findings"]) == 4


# -- the one-pass scanner against the character-by-character oracle ---------------


def _assert_matches_oracle(source, plan=None, device=None):
    """Every finding field by field, in the oracle's findings sorted totally."""
    report = lint_cuda(source, plan=plan, device=device)
    expected = lint_by_character(source, plan=plan, device=device)
    assert report.findings == tuple(
        sorted(expected.findings, key=lambda f: (f.severity, f.line, f.col, f.rule))
    )
    assert (report.lines_scanned, report.kernels, report.notes) == (
        expected.lines_scanned, expected.kernels, expected.notes,
    )
    return report


@pytest.mark.parametrize("device", ["gtx470", "nvs5200m"])
@pytest.mark.parametrize("name", list_stencils())
def test_library_kernels_match_the_oracle(name, device):
    run = Session(device=get_device(device)).run(get_stencil(name), stop_after="codegen")
    _assert_matches_oracle(
        run.artifact("codegen").cuda_source,
        plan=run.artifact("memory").plan,
        device=run.request.device,
    )


@pytest.mark.parametrize("label", sorted(table4_configurations()))
def test_table4_configurations_match_the_oracle(label):
    source, run = _generated_source("heat_3d", config=table4_configurations()[label])
    _assert_matches_oracle(source, plan=run.artifact("memory").plan)


@pytest.mark.parametrize(
    "source",
    [BAD_KERNEL, UNCOALESCED_KERNEL, UNIFORM_SYNC_KERNEL, FOUR_POINTERS_KERNEL],
)
def test_fixtures_match_the_oracle(source):
    _assert_matches_oracle(source)


#: What a mutation inserts: statements that reach every rule family, also
#: after a definition changes what a name is, and stray comments,
#: directives, brackets and operators.
_INSERTS = [
    "__syncthreads();", "if (threadIdx.x < 16) { __syncthreads(); }",
    "if (T) {", "}", "{", "else {", "else if (col < 3) {", "while (threadIdx.y) {",
    "for (int q = 0; q < 70; ++q) { shared_A_0[q][0] = 0; }",
    "for (int q = threadIdx.x; q < 8; q++) {",
    "int z = threadIdx.x * 4; shared_A_0[z][0] = 1; A[z] = 2; A[2 * z][1] = 3;",
    "T = T / 2; shared_A_0[0][2 * threadIdx.x + T / 2] = 0;",
    "z = z + T; A[global_index(z, 2 * z, T)] = 0;", "int 5 = threadIdx.x;",
    "shared_A_0[0][2 * threadIdx.x] = 0;", "shared_A_0[70][col] = 0;",
    "__shared__ float q[8][8]; q[threadIdx.x][0] = q[0][q];",
    "/* c */", "/* open", "*/", "// note\n", "\n#define X 1\n", "\n",
    ";", "(", ")", "[", "]", "+", "-", "*", "/", "%", ",", "(a) & (b)",
]
#: Index names of the generated kernels, and what a mutation puts in their place.
_INDEX_NAMES = ("ss0", "ss1", "ss2", "row", "col", "point", "S0", "tt", "l", "s0_origin")
_REPLACEMENTS = (
    "threadIdx.x", "threadIdx.y", "2 * col", "col * 32", "40", "(row)",
    "(2 * threadIdx.x)", "T",
)


def _mutant(source, rng):
    """``source`` after one to six random insertions, deletions or renames."""
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        at = rng.randrange(len(source) + 1)
        if roll < 0.3:  # after a statement, where it parses as one
            at = source.find(";", at) + 1
        if roll < 0.55:
            source = source[:at] + rng.choice(_INSERTS) + source[at:]
        elif roll < 0.75:
            source = source[:at] + source[at + rng.randint(1, 20):]
        else:
            name = rng.choice(_INDEX_NAMES)
            at = source.find(name, at)
            if at >= 0:
                replacement = rng.choice(_REPLACEMENTS)
                source = source[:at] + replacement + source[at + len(name):]
    return source


@functools.cache
def _library_sources():
    return tuple(_generated_source(name)[0] for name in list_stencils())


@pytest.mark.parametrize("chunk", range(6))
def test_mutated_kernels_match_the_oracle(chunk):
    """55 seeded mutants of the library kernels per chunk, 330 in all."""
    findings = 0
    for seed in range(55 * chunk, 55 * (chunk + 1)):
        rng = random.Random(seed)
        findings += len(_assert_matches_oracle(_mutant(rng.choice(_library_sources()), rng)).findings)
    assert findings > 0

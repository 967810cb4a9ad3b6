"""Crash reports: the document, its location, retention and writers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.obs.log import (
    attach_crash_report,
    crash_report_dir,
    write_crash_report,
)


def test_crash_report_document_and_location():
    recorder = obs.TraceRecorder()
    with obs.use(recorder):
        with recorder.span("session.run"):
            error = RuntimeError("tiling exploded")
            path = write_crash_report(
                error,
                context={"operation": "compile", "program": "jacobi_2d"},
                recorder=recorder,
                stage_keys={"parse": "k1"},
            )
    assert path is not None
    assert path.parent == crash_report_dir()  # under $HEXCC_CACHE_DIR/crash
    document = json.loads(path.read_text())
    assert set(document) == {
        "kind", "schema_version", "ts_ns", "pid", "error", "context",
        "span_stack", "stage_keys",
    }
    assert document["kind"] == "hexcc-crash"
    assert document["schema_version"] == 2
    assert document["error"]["type"] == "RuntimeError"
    assert document["error"]["message"] == "tiling exploded"
    assert any("tiling exploded" in ln for ln in document["error"]["traceback"])
    assert document["context"]["program"] == "jacobi_2d"
    assert [s["name"] for s in document["span_stack"]] == ["session.run"]
    assert document["stage_keys"] == {"parse": "k1"}


def test_a_raised_error_reports_its_frames_in_a_fresh_process(tmp_path):
    """Only writing a report loads ``traceback``, and the report still holds
    the raised error's frames with their source lines."""
    script = tmp_path / "crash.py"
    script.write_text(
        "import sys\n"
        "from repro.obs.log import write_crash_report\n"
        "assert 'traceback' not in sys.modules\n"
        "def explode():\n"
        "    raise RuntimeError('tiling exploded')\n"
        "try:\n"
        "    explode()\n"
        "except RuntimeError as error:\n"
        "    print(write_crash_report(error))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    lines = json.loads(Path(result.stdout.strip()).read_text())["error"]["traceback"]
    assert lines[0] == "Traceback (most recent call last):\n"
    assert any("in explode" in ln and "raise RuntimeError('tiling exploded')" in ln
               for ln in lines)
    assert lines[-1] == "RuntimeError: tiling exploded\n"


def test_crash_reports_are_pruned_to_the_keep_limit(monkeypatch):
    monkeypatch.setenv("HEXCC_CRASH_KEEP", "2")
    paths = [write_crash_report(ValueError(str(i))) for i in range(4)]
    assert all(p is not None for p in paths)
    remaining = sorted(crash_report_dir().glob("crash-*.json"))
    assert remaining == [paths[2], paths[3]]  # newest two survive


def test_crash_reports_can_be_disabled(monkeypatch):
    monkeypatch.setenv("HEXCC_CRASH_DISABLE", "1")
    assert write_crash_report(ValueError("x")) is None
    assert not list(crash_report_dir().glob("crash-*.json"))


def test_attach_crash_report_keeps_the_first_path(tmp_path):
    error = ValueError("x")
    attach_crash_report(error, None)
    assert not hasattr(error, "crash_report_path")
    attach_crash_report(error, tmp_path / "a.json")
    attach_crash_report(error, tmp_path / "b.json")  # a later layer's report
    assert error.crash_report_path == str(tmp_path / "a.json")


def test_session_failure_writes_a_crash_report(monkeypatch, small_jacobi_2d):
    from repro.api import Session

    def explode(self, pipeline_pass, key, request, artifacts):
        if pipeline_pass.name == "tiling":
            raise RuntimeError("synthetic tiling fault")
        return original(self, pipeline_pass, key, request, artifacts)

    original = Session._fetch_or_run
    monkeypatch.setattr(Session, "_fetch_or_run", explode)
    with pytest.raises(RuntimeError) as excinfo, obs.use(obs.TraceRecorder()):
        Session().run(small_jacobi_2d)
    path = getattr(excinfo.value, "crash_report_path", None)
    assert path is not None
    document = json.loads(open(path).read())
    assert document["context"]["operation"] == "compile"
    assert document["context"]["program"] == "jacobi_2d"
    # The report names the stages that completed before the fault...
    assert "canonicalize" in document["stage_keys"]
    assert "tiling" not in document["stage_keys"]
    # ...and the span still open when the report was written (the pass span
    # closed as the exception propagated out of it).
    assert [s["name"] for s in document["span_stack"]] == ["session.run"]


def test_strategy_errors_do_not_produce_crash_reports(small_jacobi_2d):
    from repro.api import Session, StrategyError, TileSizes

    with pytest.raises(StrategyError):  # 2-D stencil, one tile width
        Session(strategy="classical").run(
            small_jacobi_2d, tile_sizes=TileSizes.of(2, 4)
        )
    assert not list(crash_report_dir().glob("crash-*.json"))


def test_candidate_fault_becomes_a_failed_trial_with_one_crash_report(monkeypatch):
    """A scored candidate's pipeline fault is reported, and the sweep goes on."""
    from repro.api import Session
    from repro.stencils import get_stencil
    from repro.tuning import tune

    analyses = []

    def explode_second_analysis(self, pipeline_pass, key, request, artifacts):
        if pipeline_pass.name == "analysis":
            analyses.append(request)
            if len(analyses) == 2:  # the first candidate after the baseline
                raise RuntimeError("synthetic analysis fault")
        return original(self, pipeline_pass, key, request, artifacts)

    original = Session._fetch_or_run
    monkeypatch.setattr(Session, "_fetch_or_run", explode_second_analysis)
    result = tune(get_stencil("jacobi_1d"), strategy="grid", budget=4)
    entry = result.to_entry()
    assert entry["evaluations"] == len(analyses) == 5
    assert entry["failures"] == 1
    (failed,) = [trial for trial in result.trials if not trial.ok]
    assert failed.error == "RuntimeError: synthetic analysis fault"
    (report,) = crash_report_dir().glob("crash-*.json")
    document = json.loads(report.read_text())
    assert document["context"]["operation"] == "compile"
    assert document["context"]["program"] == "jacobi_1d"


def test_tuning_failure_writes_one_crash_report(monkeypatch):
    from repro.stencils import get_stencil
    from repro.tuning import tuner

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic space fault")

    monkeypatch.setattr(tuner, "CandidateSpace", explode)
    with pytest.raises(RuntimeError) as excinfo:
        tuner.tune(get_stencil("jacobi_1d"), budget=2)
    (report,) = crash_report_dir().glob("crash-*.json")
    assert str(report) == excinfo.value.crash_report_path
    document = json.loads(report.read_text())
    assert document["context"]["operation"] == "tune"

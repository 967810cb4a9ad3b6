"""The API exception hierarchy, including the simulation-mismatch error."""

from __future__ import annotations

import pytest

from repro.api import (
    PipelineError,
    Session,
    SimulationMismatchError,
    StrategyError,
    TileSizes,
    get_stencil,
)


def test_error_hierarchy():
    assert issubclass(StrategyError, PipelineError)
    assert issubclass(SimulationMismatchError, PipelineError)
    # Backwards compatibility: pre-existing callers caught AssertionError.
    assert issubclass(SimulationMismatchError, AssertionError)


def test_simulate_and_check_raises_typed_error_on_divergence(monkeypatch):
    from repro.gpu.simulator import SimulationResult

    program = get_stencil("jacobi_1d", sizes=(64,), steps=8)
    run = Session().run(program, tile_sizes=TileSizes.of(1, 4), stop_after="memory")
    monkeypatch.setattr(
        SimulationResult, "matches_reference", lambda self, reference: False
    )
    with pytest.raises(SimulationMismatchError, match="diverges"):
        run.simulate_and_check()


def test_cli_reports_divergence_as_compile_failure(monkeypatch, capsys):
    from repro.cli import main
    from repro.gpu.simulator import SimulationResult

    monkeypatch.setattr(
        SimulationResult, "matches_reference", lambda self, reference: False
    )
    code = main(["validate", "jacobi_1d", "--size", "24", "--steps", "4",
                 "--h", "1", "--widths", "6"])
    assert code == 1
    assert "diverges" in capsys.readouterr().err

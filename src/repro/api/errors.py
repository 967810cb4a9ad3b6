"""Exceptions raised by the staged pipeline API."""

from __future__ import annotations


class PipelineError(Exception):
    """A stage of the pipeline could not run or produced an invalid artifact."""


class StrategyError(PipelineError):
    """A tiling strategy is unknown or cannot handle the requested program."""


class SimulationMismatchError(PipelineError, AssertionError):
    """Functional simulation diverged from the NumPy reference interpreter.

    Raised by :meth:`repro.api.PipelineRun.simulate_and_check`.  Also an
    :class:`AssertionError`, so test code may catch it as a failed check.
    """

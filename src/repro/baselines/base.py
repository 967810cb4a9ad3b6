"""Common infrastructure of the baseline compiler models."""

from __future__ import annotations

from repro._record import dataclass
from repro.gpu.counters import PerformanceCounters
from repro.gpu.device import GPUDevice
from repro.gpu.perf_model import LaunchConfiguration, PerformanceModel, PerformanceReport
from repro.model.program import StencilProgram


@dataclass
class BaselineResult:
    """Outcome of running one baseline strategy on one stencil program."""

    tool: str
    program_name: str
    supported: bool
    counters: PerformanceCounters | None = None
    launch: LaunchConfiguration | None = None
    failure_reason: str | None = None
    strategy: str = ""

    def performance(self, device: GPUDevice) -> PerformanceReport | None:
        """Performance estimate, or ``None`` when the tool failed on the input."""
        if not self.supported or self.counters is None or self.launch is None:
            return None
        return PerformanceModel(device).estimate(self.counters, self.launch)


class BaselineCompiler:
    """Base class of the baseline strategy models."""

    name = "baseline"

    def compile(self, program: StencilProgram) -> BaselineResult:
        raise NotImplementedError

    # -- shared counting helpers -------------------------------------------------------------

    @staticmethod
    def grid_elements(program: StencilProgram) -> int:
        return program.grid_points()

    @staticmethod
    def average_loads(program: StencilProgram) -> float:
        return sum(s.loads for s in program.statements) / len(program.statements)

    @staticmethod
    def fields_read_per_statement(program: StencilProgram) -> list[int]:
        """Number of distinct fields each statement reads."""
        result = []
        for statement in program.statements:
            result.append(len({read.field for read in statement.reads}))
        return result

    @staticmethod
    def halo_fraction(program: StencilProgram, tile_edge: int) -> float:
        """Extra footprint fraction a ``tile_edge``-wide spatial block loads."""
        radius = program.spatial_radius()
        ratio = 1.0
        for _ in range(program.ndim):
            ratio *= (tile_edge + 2 * radius) / tile_edge
        return ratio

    def unsupported(self, program: StencilProgram, reason: str) -> BaselineResult:
        return BaselineResult(
            tool=self.name,
            program_name=program.name,
            supported=False,
            failure_reason=reason,
        )

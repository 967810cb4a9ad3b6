"""Dependence analysis for stencil programs.

The hexagonal tile construction (Section 3.3.2 of the paper) only needs the
set of *dependence distance vectors* in the canonical schedule space
``[k*t + i, s0, ..., sn]``.  For the class of programs accepted by the front
end — constant-offset stencil reads — those distances are constant vectors
that can be read off the access offsets directly, which is what this module
does (playing the role of isl's dataflow analysis [Feautrier 1991]).

Two storage models are supported:

* ``expanded`` — every time step writes a fresh array version (the paper's
  ``A[t][i]`` example); only flow (read-after-write) dependences exist.
* ``rotating`` — values live in a rotating double buffer (``A[t%2]`` as in
  Figure 1); additional anti and output dependences constrain the schedule.

Both models produce dependence cones that are valid for hybrid tiling; the
benchmarks of the paper have symmetric stencils, for which the two models
yield the same cone.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence

from repro._record import dataclass
from repro.model.program import StencilProgram


class DependenceKind(enum.Enum):
    """Classification of a data dependence."""

    FLOW = "flow"      # read after write
    ANTI = "anti"      # write after read
    OUTPUT = "output"  # write after write


@dataclass(frozen=True)
class Dependence:
    """A dependence between two statements with a constant distance vector.

    ``distance`` is expressed in the canonical schedule space
    ``[k*t + i, s0, ..., sn]``: the first component is the distance along the
    logical time dimension, the remaining components along the space
    dimensions.  ``sink`` depends on ``source``: the source instance at
    ``sink_instance - distance`` must execute before the sink instance.
    """

    source: str
    sink: str
    kind: DependenceKind
    distance: tuple[int, ...]

    @property
    def time_distance(self) -> int:
        return self.distance[0]

    @property
    def space_distances(self) -> tuple[int, ...]:
        return self.distance[1:]

    def __str__(self) -> str:
        return (
            f"{self.source} -> {self.sink} [{self.kind.value}] "
            f"distance={self.distance}"
        )


class DependenceError(ValueError):
    """The program violates the structural assumptions of Section 3.2/3.3.1."""


def compute_dependences(
    program: StencilProgram,
    storage: str = "expanded",
) -> list[Dependence]:
    """Compute the dependences of a stencil program.

    Parameters
    ----------
    program:
        The stencil program.
    storage:
        ``"expanded"`` for single-assignment (time-expanded) arrays or
        ``"rotating"`` for double-buffered storage; see the module docstring.
    """
    if storage not in ("expanded", "rotating"):
        raise ValueError("storage must be 'expanded' or 'rotating'")

    k = program.num_statements
    writer_index: dict[str, int] = {}
    for index, statement in enumerate(program.statements):
        if statement.target in writer_index:
            raise DependenceError(
                f"field {statement.target!r} is written by more than one statement; "
                "the canonicalisation of Section 3.2 requires a single writer"
            )
        writer_index[statement.target] = index

    dependences: list[Dependence] = []
    for sink_index, statement in enumerate(program.statements):
        for read in statement.unique_reads:
            if read.field not in writer_index:
                # Read of a read-only input field: no dependence.
                continue
            source_index = writer_index[read.field]
            time_distance = k * read.time_offset + (sink_index - source_index)
            if time_distance <= 0:
                raise DependenceError(
                    f"statement {statement.name!r} reads {read.field!r} with "
                    f"time offset {read.time_offset} but the producing statement "
                    "does not execute earlier; the input is not a valid stencil"
                )
            distance = (time_distance, *(-o for o in read.offsets))
            dependences.append(
                Dependence(
                    source=program.statements[source_index].name,
                    sink=statement.name,
                    kind=DependenceKind.FLOW,
                    distance=distance,
                )
            )
            if storage == "rotating":
                # Anti dependence: the storage cell read here is overwritten by
                # the writer's next visit to that buffer.  With a rotating
                # buffer of depth ``time_offset + 1`` the next overwrite of the
                # same cell happens ``time_offset + 1`` time iterations after
                # the producing write, i.e. one iteration after the read.
                anti_time = k * 1 + (source_index - sink_index)
                if anti_time > 0:
                    dependences.append(
                        Dependence(
                            source=statement.name,
                            sink=program.statements[source_index].name,
                            kind=DependenceKind.ANTI,
                            distance=(anti_time, *read.offsets),
                        )
                    )
    if storage == "rotating":
        depth = program.max_time_offset() + 1
        for statement in program.statements:
            dependences.append(
                Dependence(
                    source=statement.name,
                    sink=statement.name,
                    kind=DependenceKind.OUTPUT,
                    distance=(k * depth, *([0] * program.ndim)),
                )
            )
    return dependences


def dependence_distance_vectors(
    dependences: Iterable[Dependence],
) -> list[tuple[int, ...]]:
    """Distinct distance vectors of a dependence collection."""
    seen: set[tuple[int, ...]] = set()
    result: list[tuple[int, ...]] = []
    for dependence in dependences:
        if dependence.distance not in seen:
            seen.add(dependence.distance)
            result.append(dependence.distance)
    return result


def validate_stencil_assumptions(
    program: StencilProgram,
    dependences: Sequence[Dependence],
) -> None:
    """Check the input restrictions of Sections 3.2 and 3.3.1.

    * every dependence is carried by the (logical) time dimension, so the
      space dimensions are fully parallel within a time iteration;
    * space distances are bounded (trivially true for constant distances).
    """
    for dependence in dependences:
        if dependence.time_distance <= 0:
            raise DependenceError(
                f"dependence {dependence} is not carried by the time dimension"
            )

"""The autotuner's candidate space: tile sizes + launch configurations.

The tile sizes are the legal points of the §3.7 model's search table
(:meth:`repro.tiling.tile_size.TileSizeModel.table`), in grid order: the
model's pick is always one of them, and both report the same prune counts
(:data:`~repro.tiling.tile_size.PRUNE_LEGALITY` for an ``h + 1`` that is not
a multiple of the statement count or a ``w_0`` below the convexity minimum,
then :data:`~repro.tiling.tile_size.PRUNE_SHARED_MEMORY` for a footprint
that does not fit the device).  Every candidate is legal by construction —
the property tests in ``tests/tuning`` pin that any of them survives
:func:`repro.tiling.validate.validate_hybrid_tiling`.

A candidate optionally carries a thread-block shape (the launch-config half
of the autotuner); ``tune_threads=True`` adds per-candidate block shapes
derived from the innermost tile width.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Mapping

from repro.gpu.device import GPUDevice, GTX470
from repro.model.preprocess import CanonicalForm
from repro.tiling.hybrid import TileSizes
from repro.tiling.tile_size import TileSizeModel


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: tile sizes + optional block shape."""

    sizes: TileSizes
    threads: tuple[int, ...] | None = None

    def label(self) -> str:
        text = str(self.sizes)
        if self.threads is not None:
            text += f", threads={self.threads}"
        return text


class CandidateSpace:
    """The legal tile-size/launch-config candidates of one canonicalised program.

    Enumeration is deterministic (grid order, each tile size followed by its
    thread shapes), so a seeded search over the space is reproducible by
    construction.
    """

    def __init__(
        self,
        canonical: CanonicalForm,
        device: GPUDevice = GTX470,
        *,
        inter_tile_reuse: bool = True,
        tune_threads: bool = False,
    ) -> None:
        self.device = device
        self.tune_threads = tune_threads
        self.table = TileSizeModel(canonical).table(device, inter_tile_reuse)
        self._candidates: list[Candidate] | None = None

    def _thread_shapes(self, sizes: TileSizes) -> list[tuple[int, ...] | None]:
        """Block-shape variants for one tile size (``None`` = codegen default)."""
        if not self.tune_threads:
            return [None]
        inner = sizes.widths[-1]
        shapes: list[tuple[int, ...] | None] = [None]
        for threads in (inner, 2 * inner):
            if threads > self.device.max_threads_per_block:
                continue
            shape = tuple([1] * (len(sizes.widths) - 1) + [threads])
            shapes.append(shape)
        return shapes

    def enumerate(self) -> list[Candidate]:
        """Every legal candidate, in deterministic order (memoised)."""
        if self._candidates is None:
            self._candidates = [
                Candidate(sizes=sizes, threads=threads)
                for sizes in self.table.sizes(self.table.rows())
                for threads in self._thread_shapes(sizes)
            ]
        return self._candidates

    def __len__(self) -> int:
        return len(self.enumerate())

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self.enumerate())

    @property
    def rejections(self) -> Mapping[str, int]:
        """Per-reason prune counts of the table, plus the candidates ``evaluated``."""
        return {**self.table.rejections, "evaluated": len(self.enumerate())}

    # -- navigation (used by coordinate descent) -----------------------------------

    def neighbours(self, candidate: Candidate) -> list[Candidate]:
        """Axis-aligned neighbours of a candidate that are in the space.

        For each coordinate (height, each width, the thread shape) the
        adjacent values on that axis are substituted while the others are
        held fixed; combinations that were pruned from the space are skipped.
        """
        members = set(self.enumerate())
        out: list[Candidate] = []

        def consider(sizes: TileSizes, threads: tuple[int, ...] | None) -> None:
            neighbour = Candidate(sizes=sizes, threads=threads)
            if neighbour != candidate and neighbour in members:
                out.append(neighbour)

        heights, *width_axes = self.table.axes
        for delta in (-1, 1):
            height = _step(heights, candidate.sizes.height, delta)
            if height is not None:
                consider(TileSizes(height, candidate.sizes.widths), candidate.threads)
        for axis, axis_values in enumerate(width_axes):
            for delta in (-1, 1):
                width = _step(axis_values, candidate.sizes.widths[axis], delta)
                if width is None:
                    continue
                widths = list(candidate.sizes.widths)
                widths[axis] = width
                consider(
                    TileSizes(candidate.sizes.height, tuple(widths)),
                    candidate.threads,
                )
        for threads in self._thread_shapes(candidate.sizes):
            if threads != candidate.threads:
                consider(candidate.sizes, threads)
        return out


def _step(axis: tuple[int, ...], current: int, delta: int) -> int | None:
    """The value ``delta`` (+1/-1) steps away from ``current`` on an ascending axis."""
    index = axis.index(current) + delta
    return axis[index] if 0 <= index < len(axis) else None

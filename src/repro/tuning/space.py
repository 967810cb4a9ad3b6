"""The autotuner's candidate space: the legal tile sizes of the §3.7 table.

The candidates are the legal points of the §3.7 model's search table
(:meth:`repro.tiling.tile_size.TileSizeModel.table`), in grid order: the
model's pick is always one of them, and both report the same prune counts
(:data:`~repro.tiling.tile_size.PRUNE_LEGALITY` for an ``h + 1`` that is not
a multiple of the statement count or a ``w_0`` below the convexity minimum,
then :data:`~repro.tiling.tile_size.PRUNE_SHARED_MEMORY` for a footprint
that does not fit the device).  Every candidate is a
:class:`~repro.tiling.hybrid.TileSizes` that is legal by construction — the
property tests in ``tests/tuning`` pin that any of them survives
:func:`repro.tiling.validate.validate_hybrid_tiling`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.gpu.device import GPUDevice, GTX470
from repro.model.preprocess import CanonicalForm
from repro.tiling.hybrid import TileSizes
from repro.tiling.tile_size import TileSizeModel


class CandidateSpace:
    """The legal tile sizes of one canonicalised program.

    Enumeration is deterministic (grid order), so a seeded search over the
    space is reproducible by construction.
    """

    def __init__(
        self,
        canonical: CanonicalForm,
        device: GPUDevice = GTX470,
        *,
        inter_tile_reuse: bool = True,
    ) -> None:
        self.table = TileSizeModel(canonical).table(device, inter_tile_reuse)
        self._candidates: list[TileSizes] | None = None

    def enumerate(self) -> list[TileSizes]:
        """Every legal tile size, in grid order (memoised)."""
        if self._candidates is None:
            self._candidates = self.table.sizes(self.table.rows)
        return self._candidates

    def __len__(self) -> int:
        return len(self.enumerate())

    def __iter__(self) -> Iterator[TileSizes]:
        return iter(self.enumerate())

    @property
    def rejections(self) -> Mapping[str, int]:
        """Per-reason prune counts of the table, plus the candidates ``evaluated``."""
        return self.table.rejections

    # -- navigation (used by coordinate descent) -----------------------------------

    def neighbours(self, sizes: TileSizes) -> list[TileSizes]:
        """Axis-aligned neighbours of a tile size that are in the space.

        For each coordinate (height, each width) the adjacent values on that
        axis are substituted while the others are held fixed; combinations
        that were pruned from the space are skipped.
        """
        members = set(self.enumerate())
        out: list[TileSizes] = []

        def consider(neighbour: TileSizes) -> None:
            if neighbour != sizes and neighbour in members:
                out.append(neighbour)

        heights, *width_axes = self.table.axes
        for delta in (-1, 1):
            height = _step(heights, sizes.height, delta)
            if height is not None:
                consider(TileSizes(height, sizes.widths))
        for axis, axis_values in enumerate(width_axes):
            for delta in (-1, 1):
                width = _step(axis_values, sizes.widths[axis], delta)
                if width is None:
                    continue
                widths = list(sizes.widths)
                widths[axis] = width
                consider(TileSizes(sizes.height, tuple(widths)))
        return out


def _step(axis: tuple[int, ...], current: int, delta: int) -> int | None:
    """The value ``delta`` (+1/-1) steps away from ``current`` on an ascending axis."""
    index = axis.index(current) + delta
    return axis[index] if 0 <= index < len(axis) else None

"""Shared-memory planning (Sections 4.2, 4.2.1, 4.2.2 and 4.2.3 of the paper).

For every field read inside a tile, the plan records the smallest rectangular
box (in the field's data space, relative to the tile origin) that covers all
accesses of a full tile — this is the PPCG allocation strategy the paper
builds on.  On top of the box the plan captures the paper's refinements:

* **interleaved copy-out** — results are stored to global memory as soon as
  they are produced instead of in a separate phase (4.2.1);
* **inter-tile reuse** — values already staged by the previous tile along the
  innermost (sequentially executed) classical dimension are moved inside
  shared memory instead of being reloaded (4.2.2); the *static* variant keeps
  each global element at a fixed shared location (no internal copy, but
  bank-conflict-prone accesses), the *dynamic* variant relocates values
  between tiles (an extra internal copy, conflict-free accesses);
* **aligned loads** — the tile origin along the innermost dimension is
  translated so every global load starts on a cache line boundary (4.2.3).
"""

from __future__ import annotations

from repro._record import dataclass
from repro.model.program import StencilProgram
from repro.api.config import OptimizationConfig
from repro.tiling.hybrid import HybridTiling
from repro.tiling.tile_size import TileSizeModel


@dataclass(frozen=True)
class FieldFootprint:
    """Per-field shared-memory box of one full tile.

    ``extents`` are the box sizes along each space dimension (including the
    read halo); ``versions`` is the number of distinct time versions of the
    field the tile reads from global memory (2 for an ordinary double-buffered
    Jacobi-style stencil, 1 for fields only read at the current time step).
    """

    field: str
    extents: tuple[int, ...]
    halo_lower: tuple[int, ...]
    halo_upper: tuple[int, ...]
    versions: int
    element_size: int = 4

    @property
    def elements(self) -> int:
        total = 1
        for extent in self.extents:
            total *= extent
        return total

    @property
    def bytes(self) -> int:
        return self.elements * self.element_size * self.versions

    @property
    def innermost_row_elements(self) -> int:
        return self.extents[-1]

    def __str__(self) -> str:
        dims = "x".join(str(e) for e in self.extents)
        return f"{self.field}[{dims}] x{self.versions} = {self.bytes} bytes"


@dataclass(frozen=True)
class SharedMemoryPlan:
    """Complete shared-memory strategy of one compilation."""

    footprints: tuple[FieldFootprint, ...]
    config: OptimizationConfig
    loads_per_tile: int
    reused_per_tile: int
    stores_per_tile: int
    shared_bytes_per_block: int
    aligned: bool
    internal_copy_elements: int

    @property
    def uses_shared_memory(self) -> bool:
        return self.config.use_shared_memory

    def footprint(self, field: str) -> FieldFootprint:
        for footprint in self.footprints:
            if footprint.field == field:
                return footprint
        raise KeyError(field)

    def describe(self) -> str:
        lines = [f"shared memory plan ({self.config.label}):"]
        for footprint in self.footprints:
            lines.append(f"  {footprint}")
        lines.append(f"  loads/tile   : {self.loads_per_tile}")
        lines.append(f"  reused/tile  : {self.reused_per_tile}")
        lines.append(f"  stores/tile  : {self.stores_per_tile}")
        lines.append(f"  shared bytes : {self.shared_bytes_per_block}")
        lines.append(f"  aligned      : {self.aligned}")
        return "\n".join(lines)


def plan_shared_memory(
    tiling: HybridTiling,
    config: OptimizationConfig,
    element_size: int = 4,
) -> SharedMemoryPlan:
    """Compute the shared-memory plan of a hybrid tiling under a configuration."""
    program = tiling.canonical.program
    model = TileSizeModel(tiling.canonical)
    _, extents = model.footprint(tiling.sizes.height, tiling.sizes.widths)

    footprints: list[FieldFootprint] = []
    loads_per_tile = 0
    reused_per_tile = 0
    for field, radii in model.read_radii.items():
        box = [extent + high - low for extent, (low, high) in zip(extents, radii)]
        versions = _versions_read(program, field)
        footprint = FieldFootprint(
            field=field,
            extents=tuple(box),
            halo_lower=tuple(-low for low, _ in radii),
            halo_upper=tuple(high for _, high in radii),
            versions=versions,
            element_size=element_size,
        )
        footprints.append(footprint)
        full_box = footprint.elements * versions
        if config.inter_tile_reuse != "none" and len(box) > 1:
            fresh_inner = tiling.sizes.widths[-1]
            fresh = full_box // box[-1] * min(fresh_inner, box[-1])
            loads_per_tile += fresh
            reused_per_tile += full_box - fresh
        else:
            loads_per_tile += full_box

    stores_per_tile = tiling.iterations_per_full_tile()
    # The shared allocation holds one box per field: the generated code
    # ping-pongs time steps within the same buffer (writing a point only after
    # all its readers at the previous time step inside the tile have run),
    # so the *allocation* does not scale with the number of time versions even
    # though the *loads* do.
    shared_bytes = (
        sum(f.elements * f.element_size for f in footprints)
        if config.use_shared_memory
        else 0
    )
    internal_copy = reused_per_tile if config.inter_tile_reuse == "dynamic" else 0

    return SharedMemoryPlan(
        footprints=tuple(footprints),
        config=config,
        loads_per_tile=loads_per_tile,
        reused_per_tile=reused_per_tile,
        stores_per_tile=stores_per_tile,
        shared_bytes_per_block=shared_bytes,
        aligned=config.align_loads,
        internal_copy_elements=internal_copy,
    )


# -- helpers --------------------------------------------------------------------------------


def _versions_read(program: StencilProgram, field: str) -> int:
    """Distinct time versions of ``field`` a tile reads from global memory."""
    max_offset = 0
    for statement in program.statements:
        for read in statement.reads:
            if read.field == field:
                max_offset = max(max_offset, read.time_offset)
    return max(1, max_offset + 1 if max_offset >= 1 else 1)

"""Functional GPU simulator.

The simulator executes a hybrid-tiled (or baseline-tiled) stencil program the
way the generated CUDA code would: tile by tile in schedule order, with the
intra-tile point order of Section 3.5, staging data through a simulated
shared-memory footprint when the configuration asks for it.  It serves three
purposes:

* **schedule validation** — the final field values must match the reference
  NumPy interpreter bit-for-bit (all arithmetic is float32 and performed in
  the same association order per point);
* **shared-memory plan validation** — every read performed inside a tile must
  fall inside the footprint box the plan reserved for that tile;
* **counter cross-checking** — the exact counters collected here (loads,
  stores, flops, barriers) are compared against the analytic profiler on the
  same small problem instances.

It is deliberately an *interpreter*: it runs the small problem sizes used in
tests, while the paper-scale experiments use the analytic profiler.

Execution runs off the sorted columnar schedule and vectorises each barrier
step (all points of one tile column sharing the same ``t'``) into NumPy array
operations.  Those points execute in parallel on the GPU — the legality
checker proves no dependence connects them — so elementwise float32
evaluation of the statement's expression tree performs each point's
arithmetic in the same association order as a point-at-a-time execution.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro._record import dataclass
from repro.codegen.shared_mem import SharedMemoryPlan
from repro.gpu.counters import PerformanceCounters
from repro.model.expr import FieldRead
from repro.model.program import StencilProgram
from repro.api.config import OptimizationConfig
from repro.tiling.hybrid import HybridTiling, TileCoordinate
from repro.tiling.schedule_arrays import ScheduleArrays, run_boundaries


def _encode_locations(
    index: tuple[np.ndarray, ...], sizes: Sequence[int]
) -> np.ndarray:
    """Injective integer encoding of grid locations (see `_run_tile_groups`)."""
    linear = index[0] + sizes[0]
    for axis in range(1, len(index)):
        extent = sizes[axis]
        linear = linear * (2 * extent) + (index[axis] + extent)
    return linear


def _count_distinct(values: np.ndarray) -> int:
    """Number of distinct values of a 1-D array, by sorting and comparing.

    Equals ``np.unique(values).size``, which on NumPy 2 imports ``numpy.ma``
    on first use, an import every ``hexcc validate`` process would pay for.
    """
    return len(run_boundaries(np.sort(values)))


class SimulationError(RuntimeError):
    """The simulated execution violated an assumption (footprint, ordering...)."""


@dataclass
class SimulationResult:
    """Outcome of a functional simulation."""

    final_fields: dict[str, np.ndarray]
    counters: PerformanceCounters
    tiles_executed: int
    full_tiles: int
    partial_tiles: int
    max_footprint_elements: int = 0

    def matches_reference(
        self, reference: Mapping[str, np.ndarray], atol: float = 1e-4
    ) -> bool:
        """Whether the simulated result equals the reference interpreter's.

        A NaN matches a NaN at the same position, and nothing else.
        """
        for name, expected in reference.items():
            if name not in self.final_fields:
                return False
            if not np.allclose(
                self.final_fields[name], expected, atol=atol, rtol=1e-4, equal_nan=True
            ):
                return False
        return True


class FunctionalSimulator:
    """Execute a hybrid tiling functionally and collect exact counters."""

    def __init__(
        self,
        tiling: HybridTiling,
        plan: SharedMemoryPlan | None = None,
        config: OptimizationConfig | None = None,
    ) -> None:
        self.tiling = tiling
        self.plan = plan
        self.config = config or OptimizationConfig.default()
        self.program: StencilProgram = tiling.canonical.program

    # -- main entry point ----------------------------------------------------------------

    def run(
        self,
        initial: Mapping[str, np.ndarray] | None = None,
        seed: int = 0,
        check_footprint: bool = True,
    ) -> SimulationResult:
        program = self.program
        if initial is None:
            initial = program.initial_state(seed)

        steps = program.time_steps
        # state[v] holds every field after v completed time steps; versions are
        # pre-filled with the initial values so never-written (boundary) cells
        # read back their initial value, matching the reference semantics.
        state: dict[str, list[np.ndarray]] = {
            name: [np.array(initial[name], dtype=np.float32, copy=True) for _ in range(steps + 1)]
            for name in program.fields
        }

        counters = PerformanceCounters()
        counters.stencil_updates = 0.0

        # The full schedule is sorted once per tiling (the memoised
        # ``np.lexsort``); tiles and barrier steps are consecutive runs of the
        # sorted key columns, so the only Python loop left is one iteration
        # per barrier step.
        tiling = self.tiling
        ordered: ScheduleArrays = tiling.schedule_arrays().take(
            tiling.sequential_order()
        )
        total = len(ordered)
        tile_columns = ordered.tile_key_columns()
        tile_starts = run_boundaries(*tile_columns)
        tile_ends = np.append(tile_starts[1:], total)
        group_starts = run_boundaries(*tile_columns, ordered.local_time)

        expected_full = tiling.iterations_per_full_tile()
        full_tiles = 0
        partial_tiles = 0
        max_footprint = 0
        # A stencil may overflow or divide by zero: the reference meets the
        # same values, and matches_reference compares them, NaN included.
        with np.errstate(all="ignore"):
            for start, end in zip(tile_starts, tile_ends):
                count = int(end - start)
                if count == expected_full:
                    full_tiles += 1
                else:
                    partial_tiles += 1
                lo = int(np.searchsorted(group_starts, start))
                hi = int(np.searchsorted(group_starts, end))
                bounds = zip(
                    group_starts[lo:hi],
                    np.append(group_starts[lo + 1 : hi], end),
                )
                footprint, distinct_loads, reads_performed = self._run_tile_groups(
                    ordered, bounds, state, counters
                )
                self._account_tile(counters, count, distinct_loads, reads_performed)
                max_footprint = max(max_footprint, footprint)
                if check_footprint and self.plan is not None and count == expected_full:
                    self._check_footprint(ordered.point(int(start)).tile, footprint)
                counters.barriers += tiling.shape.time_period

        counters.kernel_launches = 2.0 * _count_distinct(ordered.time_tile)
        counters.host_device_bytes = 2.0 * program.data_bytes()

        final = {name: state[name][steps].copy() for name in program.fields}
        return SimulationResult(
            final_fields=final,
            counters=counters,
            tiles_executed=len(tile_starts),
            full_tiles=full_tiles,
            partial_tiles=partial_tiles,
            max_footprint_elements=max_footprint,
        )

    def _run_tile_groups(
        self,
        ordered: ScheduleArrays,
        bounds,
        state: dict[str, list[np.ndarray]],
        counters: PerformanceCounters,
    ) -> tuple[int, int, int]:
        """Vectorised interpretation of one tile: one array op per barrier step.

        Points of a barrier step (same tile, same ``t'``) run in parallel on
        the GPU — the legality checker proves no dependence connects them —
        so the expression tree is evaluated once over gathered float32
        arrays, in each point's own association order, elementwise.

        Returns ``(footprint_elements, distinct_loads, reads_performed)``.
        """
        program = self.program
        num_statements = self.tiling.canonical.num_statements
        # Shifted mixed-radix encoding of grid locations: coordinate c of a
        # dimension of extent S maps to c + S in base 2S, which is injective
        # for every index NumPy would accept (c in [-S, S)), so distinct
        # encodings correspond exactly to distinct location tuples.
        sizes = program.sizes
        reads_performed = 0
        # (field, version) -> list of linear-location arrays, one per access.
        staged: dict[tuple[str, int], list[np.ndarray]] = {}
        spatial = ordered.canonical[:, 1:]

        for start, end in bounds:
            start = int(start)
            end = int(end)
            count = end - start
            logical = int(ordered.canonical[start, 0])
            statement = program.statements[logical % num_statements]
            t = logical // num_statements
            columns = tuple(
                spatial[start:end, axis] for axis in range(spatial.shape[1])
            )

            def read(access: FieldRead) -> np.ndarray:
                nonlocal reads_performed
                # A read before time 0 sees the initial values, as in the
                # reference.
                version = max(0, t + 1 - access.time_offset)
                index = tuple(
                    column + offset
                    for column, offset in zip(columns, access.offsets)
                )
                linear = _encode_locations(index, sizes)
                staged.setdefault((access.field, version), []).append(linear)
                reads_performed += count
                return state[access.field][version][index]

            value = statement.expr.evaluate(read)
            state[statement.target][t + 1][columns] = np.asarray(
                value, dtype=np.float32
            )

            counters.flops += statement.flops * count
            counters.stencil_updates += count
            counters.gst_instructions += count
            counters.shared_store_requests += count / 32.0

        distinct_loads = 0
        all_locations: list[np.ndarray] = []
        for chunks in staged.values():
            merged = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            distinct_loads += _count_distinct(merged)
            all_locations.append(merged)
        # The footprint is the number of distinct *locations* touched by any
        # read, regardless of field or version.
        footprint = (
            _count_distinct(np.concatenate(all_locations)) if all_locations else 0
        )
        return footprint, distinct_loads, reads_performed

    def _account_tile(
        self,
        counters: PerformanceCounters,
        points_in_tile: int,
        distinct_loads: int,
        reads_performed: int,
    ) -> None:
        """Per-tile memory-system counter accounting."""
        counters.shared_load_requests += reads_performed / 32.0
        counters.shared_load_transactions += reads_performed / 32.0
        if self.config.use_shared_memory:
            # Each distinct (field, version, element) is staged once per tile.
            counters.gld_instructions += distinct_loads
            counters.requested_global_bytes += 4.0 * distinct_loads
            counters.transferred_global_bytes += 4.0 * distinct_loads
        else:
            # Without shared memory every read is a global load instruction.
            counters.gld_instructions += reads_performed
            counters.requested_global_bytes += 4.0 * reads_performed
            counters.transferred_global_bytes += 4.0 * distinct_loads
        counters.dram_write_transactions += points_in_tile * 4.0 / 32.0
        counters.dram_read_transactions += distinct_loads * 4.0 / 32.0

    def _check_footprint(self, tile: TileCoordinate, footprint_elements: int) -> None:
        """The actual data touched by a full tile must fit the planned boxes."""
        assert self.plan is not None
        planned = sum(f.elements * f.versions for f in self.plan.footprints)
        if footprint_elements > planned:
            raise SimulationError(
                f"tile {tile} touched {footprint_elements} elements but the shared "
                f"memory plan only reserves {planned}"
            )

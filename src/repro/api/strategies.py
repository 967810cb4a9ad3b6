"""The tiling strategies, selected by name.

The paper's compiler has one flow, the hybrid hexagonal/classical tiling;
Section 5 compares it against classical and diamond tiling.  A
:class:`~repro.api.session.Session` is pointed at one of the three by
name: ``hybrid`` (the paper's scheme, full code generation), ``classical``
(time-skewed parallelogram tiling) or ``diamond`` (Bandishti-style diamond
tiling).

Only ``hybrid`` plans support the downstream ``memory``/``codegen`` stages;
the comparison strategies produce analysis-grade :class:`TilingPlan`
artifacts for ``stop_after="tiling"`` inspection, mirroring how the paper
uses them (qualitative comparison, Tables in Section 5).

Each strategy's ``plan(request, canonical)`` reads the ``tile_sizes``,
``config`` and ``device`` fields of the session's
:class:`~repro.api.session.CompilationRequest`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.api.artifacts import TilingPlan
from repro.api.errors import StrategyError

if TYPE_CHECKING:
    from repro.model.preprocess import CanonicalForm
    from repro.tiling.hybrid import TileSizes
    from repro.tiling.tile_size import TileCostEstimate


def _sizes(
    request: Any, canonical: CanonicalForm
) -> tuple[TileSizes, TileCostEstimate | None]:
    """The request's tile sizes, or the §3.7 load-to-compute model's pick
    together with the model's estimate."""
    if request.tile_sizes is not None:
        return request.tile_sizes, None
    from repro import obs
    from repro.tiling.tile_size import select_tile_sizes

    try:
        with obs.span("tiling.select_sizes") as span:
            tile_cost = select_tile_sizes(
                canonical,
                request.device,
                inter_tile_reuse=request.config.inter_tile_reuse != "none",
            )
            rejections = tile_cost.rejections
            evaluated = rejections["evaluated"]
            span.set(evaluated=evaluated, pruned=sum(rejections.values()) - evaluated)
    except ValueError as error:
        # No tile fits the device: a property of the program, not a fault.
        raise StrategyError(str(error)) from error
    return tile_cost.sizes, tile_cost


class HybridStrategy:
    """The paper's hybrid hexagonal/classical tiling (Sections 3.3–3.7)."""

    name = "hybrid"

    def plan(self, request: Any, canonical: CanonicalForm) -> TilingPlan:
        from repro.tiling.hybrid import HybridTiling

        sizes, tile_cost = _sizes(request, canonical)
        try:
            tiling = HybridTiling(canonical, sizes)
        except ValueError as error:
            # Illegal tile sizes are the caller's input, not a fault.
            raise StrategyError(str(error)) from error
        return TilingPlan(
            strategy=self.name,
            sizes=sizes,
            tiling=tiling,
            tile_cost=tile_cost,
            supports_codegen=True,
            details={
                "time_period": tiling.shape.time_period,
                "space_period": tiling.shape.space_period,
                "iterations_per_full_tile": tiling.iterations_per_full_tile(),
                "peak_width": tiling.shape.peak_width(),
                "concurrent_start": True,
            },
        )


class ClassicalStrategy:
    """Time-skewed parallelogram tiling of every space dimension.

    The classical scheme the paper compares against: strip-mine time by
    ``h + 1`` and skew each space dimension by its lower dependence slope.
    Tiles on one wavefront run concurrently but there is no concurrent start,
    and the peak parallelism grows only gradually (Section 2).
    """

    name = "classical"

    def plan(self, request: Any, canonical: CanonicalForm) -> TilingPlan:
        from repro.tiling.classical import ClassicalTiling

        sizes, tile_cost = _sizes(request, canonical)
        ndim = len(canonical.space_dims)
        if len(sizes.widths) != ndim:
            raise StrategyError(
                f"classical tiling of {canonical.program.name} needs {ndim} tile "
                f"widths, got {len(sizes.widths)}"
            )
        time_period = sizes.height + 1
        tilings = []
        slopes = []
        for index in range(ndim):
            _, delta1 = canonical.space_distance_bounds(index)
            slopes.append(str(delta1))
            tilings.append(
                ClassicalTiling(
                    dim_name=canonical.space_dims[index],
                    delta1=delta1,
                    width=sizes.widths[index],
                    time_period=time_period,
                )
            )
        return TilingPlan(
            strategy=self.name,
            sizes=sizes,
            tiling=tuple(tilings),
            tile_cost=tile_cost,
            supports_codegen=False,
            details={
                "time_period": time_period,
                "skew_slopes": slopes,
                "concurrent_start": False,
            },
        )


class DiamondStrategy:
    """Diamond tiling of the ``(l, s0)`` plane (Section 5 comparison)."""

    name = "diamond"

    def plan(self, request: Any, canonical: CanonicalForm) -> TilingPlan:
        from repro.tiling.cone import DependenceCone
        from repro.tiling.diamond import DiamondTiling

        sizes, tile_cost = _sizes(request, canonical)
        cone = DependenceCone.from_distance_vectors(
            canonical.distance_vectors, dim_index=0
        )
        try:
            tiling = DiamondTiling(max(sizes.w0, 1), cone)
        except ValueError as error:
            raise StrategyError(
                f"diamond tiling cannot handle {canonical.program.name}: {error}"
            ) from error
        return TilingPlan(
            strategy=self.name,
            sizes=sizes,
            tiling=tiling,
            tile_cost=tile_cost,
            supports_codegen=False,
            details={
                "size": tiling.size,
                "peak_width": tiling.peak_width(),
                "concurrent_start": False,
            },
        )


Strategy = HybridStrategy | ClassicalStrategy | DiamondStrategy

_STRATEGIES: dict[str, Strategy] = {
    "classical": ClassicalStrategy(),
    "diamond": DiamondStrategy(),
    "hybrid": HybridStrategy(),
}


def get_strategy(name: str) -> Strategy:
    """Look a strategy up by name; raises :class:`StrategyError` if unknown."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise StrategyError(
            f"unknown tiling strategy {name!r}; known: {list_strategies()}"
        ) from None


def list_strategies() -> list[str]:
    """Names of the three strategies, sorted."""
    return sorted(_STRATEGIES)

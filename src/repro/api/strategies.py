"""Pluggable tiling strategies, selected by name.

The paper's compiler hardwires the hybrid hexagonal/classical tiling; the
staged API instead looks the tiling stage up in a registry, so a
:class:`~repro.api.session.Session` can be pointed at ``hybrid`` (the paper's
scheme, full code generation), ``classical`` (time-skewed parallelogram
tiling) or ``diamond`` (Bandishti-style diamond tiling, Section 5) — or at a
user-registered strategy — without any call-site rewiring.

Only ``hybrid`` plans support the downstream ``memory``/``codegen`` stages;
the comparison strategies produce analysis-grade :class:`TilingPlan`
artifacts for ``stop_after="tiling"`` inspection, mirroring how the paper
uses them (qualitative comparison, Tables in Section 5).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from repro.api.artifacts import TilingPlan
from repro.api.errors import StrategyError

if TYPE_CHECKING:
    from repro.model.preprocess import CanonicalForm


class TilingStrategy(ABC):
    """One way of tiling the canonical iteration space.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`plan`.  ``request`` is the session's
    :class:`~repro.api.session.CompilationRequest`; strategies read its
    ``tile_sizes``, ``config`` and ``device`` fields.
    """

    name: str = ""
    #: Whether plans of this strategy can continue into memory/codegen.
    supports_codegen: bool = False

    @abstractmethod
    def plan(self, request: Any, canonical: CanonicalForm) -> TilingPlan:
        """Build the tiling plan for one canonicalised program."""

    def _model_sizes(self, request: Any, canonical: CanonicalForm):
        """Tile sizes via the §3.7 load-to-compute model (shared helper)."""
        from repro.tiling.tile_size import select_tile_sizes

        try:
            return select_tile_sizes(
                canonical,
                request.device,
                inter_tile_reuse=request.config.inter_tile_reuse != "none",
            )
        except ValueError as error:
            # No tile fits the device: a property of the program, not a fault.
            raise StrategyError(str(error)) from error


class HybridStrategy(TilingStrategy):
    """The paper's hybrid hexagonal/classical tiling (Sections 3.3–3.7)."""

    name = "hybrid"
    supports_codegen = True

    def plan(self, request: Any, canonical: CanonicalForm) -> TilingPlan:
        from repro.tiling.hybrid import HybridTiling

        tile_cost = None
        sizes = request.tile_sizes
        if sizes is None:
            tile_cost = self._model_sizes(request, canonical)
            sizes = tile_cost.sizes
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


class ClassicalStrategy(TilingStrategy):
    """Time-skewed parallelogram tiling of every space dimension.

    The classical scheme the paper compares against: strip-mine time by
    ``h + 1`` and skew each space dimension by its lower dependence slope.
    Tiles on one wavefront run concurrently but there is no concurrent start,
    and the peak parallelism grows only gradually (Section 2).
    """

    name = "classical"
    supports_codegen = False

    def plan(self, request: Any, canonical: CanonicalForm) -> TilingPlan:
        from repro.tiling.classical import ClassicalTiling

        tile_cost = None
        sizes = request.tile_sizes
        if sizes is None:
            tile_cost = self._model_sizes(request, canonical)
            sizes = tile_cost.sizes
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


class DiamondStrategy(TilingStrategy):
    """Diamond tiling of the ``(l, s0)`` plane (Section 5 comparison)."""

    name = "diamond"
    supports_codegen = False

    def plan(self, request: Any, canonical: CanonicalForm) -> TilingPlan:
        from repro.tiling.cone import DependenceCone
        from repro.tiling.diamond import DiamondTiling

        tile_cost = None
        sizes = request.tile_sizes
        if sizes is None:
            tile_cost = self._model_sizes(request, canonical)
            sizes = tile_cost.sizes
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


_REGISTRY: dict[str, TilingStrategy] = {}


def register_strategy(strategy: TilingStrategy, replace: bool = False) -> TilingStrategy:
    """Add a strategy instance to the registry (keyed by ``strategy.name``)."""
    if not strategy.name:
        raise ValueError("tiling strategies must set a non-empty name")
    if strategy.name in _REGISTRY and not replace:
        raise ValueError(f"tiling strategy {strategy.name!r} is already registered")
    _REGISTRY[strategy.name] = strategy
    return strategy


def get_strategy(name: str) -> TilingStrategy:
    """Look a strategy up by name; raises :class:`StrategyError` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise StrategyError(
            f"unknown tiling strategy {name!r}; known: {list_strategies()}"
        ) from None


def list_strategies() -> list[str]:
    """Names of all registered strategies, sorted."""
    return sorted(_REGISTRY)


register_strategy(HybridStrategy())
register_strategy(ClassicalStrategy())
register_strategy(DiamondStrategy())

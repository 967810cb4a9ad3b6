"""Compilation options: tile sizes and the optimisation configurations of §6.2.

The :class:`OptimizationConfig` switches correspond exactly to the rows of
Table 4 of the paper:

=====  ==============================================================
row    configuration
=====  ==============================================================
(a)    no shared memory (operate on global memory through the caches)
(b)    explicit shared memory with a separate copy-in / copy-out phase
(c)    (b) + interleaved copy-out (Section 4.2.1)
(d)    (c) + cache-line aligned loads (Section 4.2.3)
(e)    (d) + inter-tile value reuse with a *static* shared mapping
(f)    (d) + inter-tile value reuse with a *dynamic* shared mapping
=====  ==============================================================
"""

from __future__ import annotations

from repro._record import dataclass, replace
from repro.tiling.hybrid import TileSizes

__all__ = ["OptimizationConfig", "TileSizes", "table4_configurations"]


@dataclass(frozen=True)
class OptimizationConfig:
    """Code-generation options of Section 4 / Section 6.2."""

    use_shared_memory: bool = True
    interleave_copy_out: bool = True
    align_loads: bool = True
    inter_tile_reuse: str = "dynamic"     # "none" | "static" | "dynamic"
    unroll: bool = True
    separate_full_partial: bool = True

    def __post_init__(self) -> None:
        if self.inter_tile_reuse not in ("none", "static", "dynamic"):
            raise ValueError("inter_tile_reuse must be 'none', 'static' or 'dynamic'")
        if self.inter_tile_reuse != "none" and not self.use_shared_memory:
            raise ValueError("inter-tile reuse requires shared memory")

    # -- the named configurations of Table 4 ------------------------------------------

    @staticmethod
    def config_a() -> "OptimizationConfig":
        """(a) hybrid tiling, global memory only."""
        return OptimizationConfig(
            use_shared_memory=False,
            interleave_copy_out=False,
            align_loads=False,
            inter_tile_reuse="none",
        )

    @staticmethod
    def config_b() -> "OptimizationConfig":
        """(b) shared memory with separate copy phases."""
        return OptimizationConfig(
            use_shared_memory=True,
            interleave_copy_out=False,
            align_loads=False,
            inter_tile_reuse="none",
        )

    @staticmethod
    def config_c() -> "OptimizationConfig":
        """(c) = (b) + interleaved copy-out."""
        return replace(OptimizationConfig.config_b(), interleave_copy_out=True)

    @staticmethod
    def config_d() -> "OptimizationConfig":
        """(d) = (c) + aligned loads."""
        return replace(OptimizationConfig.config_c(), align_loads=True)

    @staticmethod
    def config_e() -> "OptimizationConfig":
        """(e) = (d) + static inter-tile value reuse."""
        return replace(OptimizationConfig.config_d(), inter_tile_reuse="static")

    @staticmethod
    def config_f() -> "OptimizationConfig":
        """(f) = (d) + dynamic inter-tile value reuse (the default, best config)."""
        return replace(OptimizationConfig.config_d(), inter_tile_reuse="dynamic")

    @staticmethod
    def default() -> "OptimizationConfig":
        """The configuration the paper uses for Tables 1 and 2 (same as (f))."""
        return OptimizationConfig.config_f()

    @property
    def label(self) -> str:
        """The Table 4 row label of this configuration, if it is one of them."""
        for label, config in table4_configurations().items():
            if config == self:
                return label
        return "custom"


def table4_configurations() -> dict[str, OptimizationConfig]:
    """The six configurations of Table 4, keyed by their row label."""
    return {
        "a": OptimizationConfig.config_a(),
        "b": OptimizationConfig.config_b(),
        "c": OptimizationConfig.config_c(),
        "d": OptimizationConfig.config_d(),
        "e": OptimizationConfig.config_e(),
        "f": OptimizationConfig.config_f(),
    }

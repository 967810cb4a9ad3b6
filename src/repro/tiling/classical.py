"""Classical (parallelogram) tiling of the inner space dimensions (Section 3.4).

Each space dimension ``s_i`` with ``i >= 1`` is strip-mined separately.  The
tile index and intra-tile coordinate are::

    S_i  = floor((s_i + δ1_i · u) / w_i)          (14)
    s'_i = (s_i + δ1_i · u) mod w_i               (17)

where ``u`` is the local (logical) time within the current hexagonal tile::

    u = (l + h + 1) mod (2h + 2)    for phase 0   (15)
    u = l mod (2h + 2)              for phase 1   (16)

Only the lower slope ``δ1_i`` of the dependence cone is needed: tiles along a
classically tiled dimension are executed *sequentially* (in increasing
``S_i``), so dependences pointing towards higher ``s_i`` are automatically
satisfied and only those pointing towards lower ``s_i`` must be compensated by
the skew.

Rational slopes are handled exactly by scaling numerator and denominator, so
the computed tile indices are always integers and match the quasi-affine
expressions emitted into the generated code.
"""

from __future__ import annotations

from fractions import Fraction

from repro._record import dataclass
from repro.polyhedral.quasi_affine import QExpr, QFloorDiv, QMod, QMul, qvar


@dataclass(frozen=True)
class ClassicalTiling:
    """Parallelogram tiling of one inner space dimension.

    Parameters
    ----------
    dim_name:
        Name of the tiled space dimension (``s1``, ``s2``, ...).
    delta1:
        Lower dependence slope for this dimension (``Δs_i >= -δ1_i·Δl``).
    width:
        Tile width ``w_i`` along this dimension.
    time_period:
        Height of the tiles, fixed to the hexagonal period ``2h + 2`` so the
        classical tiling composes with the hexagonal one.
    """

    dim_name: str
    delta1: Fraction
    width: int
    time_period: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("classical tile width must be positive")
        if self.delta1 < 0:
            raise ValueError("the skewing slope delta1 must be non-negative")
        if self.time_period <= 0:
            raise ValueError("time period must be positive")

    # -- scaling helpers ------------------------------------------------------------

    @property
    def scale(self) -> int:
        """Denominator of ``δ1_i``; all arithmetic is scaled by this factor."""
        return self.delta1.denominator

    @property
    def skew_numerator(self) -> int:
        return self.delta1.numerator

    # -- evaluation (ints or int64 arrays) -------------------------------------------

    def tile_index(self, s, u):
        """``S_i`` — equation (14), computed exactly for rational slopes.

        ``s`` and ``u`` are ints or int64 arrays; NumPy's floor division
        follows Python semantics, so both give the same values.
        """
        numerator = self.scale * s + self.skew_numerator * u
        return numerator // (self.scale * self.width)

    def local_coordinate(self, s, u):
        """``s'_i`` — equation (17), scaled by :attr:`scale`.

        For integral slopes this is exactly ``(s_i + δ1_i·u) mod w_i``; for
        rational slopes the scaled remainder is returned, which preserves both
        uniqueness within the tile and the execution order.  Works
        elementwise on int64 arrays like :meth:`tile_index`.
        """
        numerator = self.scale * s + self.skew_numerator * u
        return numerator % (self.scale * self.width)

    # -- quasi-affine expressions (for code generation) ----------------------------------

    def _numerator_expr(self, s: QExpr, u: QExpr) -> QExpr:
        scaled_s = QMul(s, self.scale) if self.scale != 1 else s
        if self.skew_numerator == 0:
            return scaled_s
        return scaled_s + QMul(u, self.skew_numerator)

    def tile_index_expr(self, s: QExpr | None = None, u: QExpr | None = None) -> QExpr:
        """Quasi-affine form of equation (14)."""
        s_expr = s if s is not None else qvar(self.dim_name)
        u_expr = u if u is not None else qvar("u")
        return QFloorDiv(self._numerator_expr(s_expr, u_expr), self.scale * self.width)

    def local_coordinate_expr(self, s: QExpr | None = None, u: QExpr | None = None) -> QExpr:
        """Quasi-affine form of equation (17)."""
        s_expr = s if s is not None else qvar(self.dim_name)
        u_expr = u if u is not None else qvar("u")
        return QMod(self._numerator_expr(s_expr, u_expr), self.scale * self.width)

    def __str__(self) -> str:
        return (
            f"ClassicalTiling({self.dim_name}, w={self.width}, "
            f"delta1={self.delta1}, period={self.time_period})"
        )

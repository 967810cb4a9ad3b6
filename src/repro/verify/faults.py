"""Schedule-mutation fault injection: does the verifier have teeth?

A verifier that accepts every schedule it is shown proves nothing.  This
module seeds a corpus of *illegal* perturbations of the hybrid schedule —
each one a realistic implementation bug — and the test suite
(:mod:`tests.faults`) asserts the symbolic verifier kills **100 %** of them
while still passing the unmutated library.

Mutation classes (each maps to a concrete bug someone could ship):

``phase_swap``
    Launch the green kernel before the blue one within a time tile —
    reverses the inter-phase ordering of Section 3.3.3.
``dropped_barrier``
    Omit the ``__syncthreads()`` between local time steps inside a tile —
    intra-tile time ordering evaporates.
``flipped_tile_order``
    Run the sequential in-kernel loops over the classical tiles ``S1..Sn``
    in decreasing order — inter-tile dependences along inner dimensions
    reverse.
``shrunk_hexagon`` / ``grown_hexagon``
    Mis-state the hexagon's row bounds (e.g. deriving them from an
    understated dependence cone) — the two phases stop partitioning the
    ``(l, s0)`` plane.
``wrong_drift`` / ``phase_offset``
    Off-by-one in the inter-phase drift (eq. 5) or the phase-0 space offset
    (eq. 3) — the printed paper and the implementation genuinely disagree on
    the latter, which is exactly the kind of bug this corpus encodes.
``dropped_skew`` / ``flipped_skew``
    Forget (or negate) the time skew of the classical inner tiling —
    negative-direction dependences cross tile boundaries backwards.

The mutations perturb the :class:`~repro.verify.symbolic.HybridScheduleModel`
the verifier analyses, not the Python tiling objects, so every class is
expressible — including execution-model bugs (barriers, launch order) that
no tiling object encodes.  The skew mutations *are* also materialisable as
real :class:`~repro.tiling.hybrid.HybridTiling` objects, which the
differential test uses to cross-check the enumerated validator.
"""

from __future__ import annotations

from collections.abc import Callable

from repro._record import dataclass, replace
from repro.verify.symbolic import HybridScheduleModel

MutationFn = Callable[[HybridScheduleModel], HybridScheduleModel]


@dataclass(frozen=True)
class ScheduleMutation:
    """One named illegal perturbation of the hybrid schedule model."""

    name: str
    category: str
    description: str
    #: Ordering levels the verifier may report for this mutant; the fault
    #: tests assert the first finding's level is one of these.
    expected_levels: tuple[str, ...]
    #: Mutants of some categories only bite on programs with inner
    #: dimensions (``ndim >= 2``); :meth:`apply` refuses them on others.
    requires_inner_dims: bool
    _apply: MutationFn

    def apply(self, model: HybridScheduleModel) -> HybridScheduleModel:
        if self.requires_inner_dims and not model.inner:
            raise ValueError(f"mutation {self.name} needs an inner tiled dimension")
        mutated = self._apply(model)
        if mutated == model:
            raise ValueError(f"mutation {self.name} left the model unchanged")
        return mutated


def _shift_rows(model: HybridScheduleModel, lower: int, upper: int) -> HybridScheduleModel:
    return replace(
        model,
        row_lower=tuple(b + lower for b in model.row_lower),
        row_upper=tuple(b + upper for b in model.row_upper),
    )


def _scale_skew(model: HybridScheduleModel, factor: int) -> HybridScheduleModel:
    return replace(
        model,
        inner=tuple(replace(dim, skew=dim.skew * factor) for dim in model.inner),
    )


_CORPUS: tuple[ScheduleMutation, ...] = (
    ScheduleMutation(
        name="phase-swap",
        category="phase_swap",
        description="launch the green kernel before the blue one",
        expected_levels=("phase",),
        requires_inner_dims=False,
        _apply=lambda m: replace(m, phase_order=(m.phase_order[1], m.phase_order[0])),
    ),
    ScheduleMutation(
        name="dropped-barrier",
        category="dropped_barrier",
        description="omit __syncthreads() between intra-tile time steps",
        expected_levels=("barrier",),
        requires_inner_dims=False,
        _apply=lambda m: replace(m, barrier_per_step=False),
    ),
    ScheduleMutation(
        name="flipped-tile-order",
        category="flipped_tile_order",
        description="iterate the inner tile loops S1..Sn in decreasing order",
        expected_levels=("intra_tile",),
        requires_inner_dims=True,
        _apply=lambda m: replace(m, inner_tiles_ascending=False),
    ),
    ScheduleMutation(
        name="shrunk-hexagon-upper",
        category="shrunk_hexagon",
        description="understate the hexagon's upper row bounds by one",
        expected_levels=("coverage",),
        requires_inner_dims=False,
        _apply=lambda m: _shift_rows(m, 0, -1),
    ),
    ScheduleMutation(
        name="shrunk-hexagon-lower",
        category="shrunk_hexagon",
        description="overstate the hexagon's lower row bounds by one",
        expected_levels=("coverage",),
        requires_inner_dims=False,
        _apply=lambda m: _shift_rows(m, 1, 0),
    ),
    ScheduleMutation(
        name="grown-hexagon",
        category="grown_hexagon",
        description="overstate the hexagon's upper row bounds by one",
        expected_levels=("coverage",),
        requires_inner_dims=False,
        _apply=lambda m: _shift_rows(m, 0, 1),
    ),
    ScheduleMutation(
        name="drift-plus-one",
        category="wrong_drift",
        description="off-by-one (high) in the inter-phase drift of eq. (5)",
        expected_levels=("coverage", "block", "phase", "time_tile"),
        requires_inner_dims=False,
        _apply=lambda m: replace(m, drift=m.drift + 1),
    ),
    ScheduleMutation(
        name="drift-minus-one",
        category="wrong_drift",
        description="off-by-one (low) in the inter-phase drift of eq. (5)",
        expected_levels=("coverage", "block", "phase", "time_tile"),
        requires_inner_dims=False,
        _apply=lambda m: replace(m, drift=m.drift - 1),
    ),
    ScheduleMutation(
        name="offset-plus-one",
        category="phase_offset",
        description="off-by-one (high) in the phase-0 space offset of eq. (3)",
        expected_levels=("coverage", "block"),
        requires_inner_dims=False,
        _apply=lambda m: replace(m, phase0_offset=m.phase0_offset + 1),
    ),
    ScheduleMutation(
        name="offset-minus-one",
        category="phase_offset",
        description="off-by-one (low) in the phase-0 space offset of eq. (3)",
        expected_levels=("coverage", "block"),
        requires_inner_dims=False,
        _apply=lambda m: replace(m, phase0_offset=m.phase0_offset - 1),
    ),
    ScheduleMutation(
        name="dropped-skew",
        category="dropped_skew",
        description="forget the time skew of the classical inner tiling",
        expected_levels=("intra_tile",),
        requires_inner_dims=True,
        _apply=lambda m: _scale_skew(m, 0),
    ),
    ScheduleMutation(
        name="flipped-skew",
        category="flipped_skew",
        description="negate the time skew of the classical inner tiling",
        expected_levels=("intra_tile",),
        requires_inner_dims=True,
        _apply=lambda m: _scale_skew(m, -1),
    ),
)


def mutation_corpus(inner_dims: int | None = None) -> tuple[ScheduleMutation, ...]:
    """The seeded corpus, optionally filtered to mutants a program supports.

    ``inner_dims`` is the number of classically tiled inner dimensions of
    the target program (``ndim - 1``); mutants that perturb the inner tiling
    are dropped when there is none to perturb.
    """
    if inner_dims is None or inner_dims > 0:
        return _CORPUS
    return tuple(m for m in _CORPUS if not m.requires_inner_dims)


def get_mutation(name: str) -> ScheduleMutation:
    """Look up one mutation by its CLI-facing name."""
    for mutation in _CORPUS:
        if mutation.name == name:
            return mutation
    known = ", ".join(m.name for m in _CORPUS)
    raise KeyError(f"unknown mutation {name!r} (known: {known})")


__all__ = ["MutationFn", "ScheduleMutation", "get_mutation", "mutation_corpus"]

"""Symbolic schedule race detection over *all* problem sizes.

The enumerated validator (:mod:`repro.tiling.validate`) checks legality by
executing the schedule on one small grid.  This module proves (or refutes)
legality for **every** grid at once, exploiting the fact that all three
schedules are closed-form quasi-affine maps of the canonical coordinates and
all dependences are constant distance vectors (Section 3.3.3 of the paper).

The key reduction: for the hexagonal schedule, the phase a point lands in
and the *displacement* of its tile indices relative to any fixed reference
are exact functions of the residues ``λ = (l + h + 1) mod P_t`` and
``μ = ν mod P_s`` of its phase-0 box coordinates — the symbolic tile indices
``T`` and ``S0`` cancel out of every comparison between a dependence's sink
``(l, s0)`` and its source ``(l - dl, s0 - ds0)``.  Every residue class is
inhabited on all sufficiently large grids, so checking the finitely many
``(λ, μ)`` classes is a sound **and complete** decision procedure.

The classes are checked a row at a time, not one by one.  Along a row ``λ``
everything about a point's phase box but ``μ`` is fixed: its time-tile
offset, its local time and a shift, so that the box coordinate is
``(μ + shift) mod P_s`` and the ``S0`` offset ``(μ + shift) // P_s``.
The offset steps only where ``μ + shift`` wraps, and membership flips only
at the box's row bounds, so each row splits into a few runs of ``μ`` on
which a point's assignment is constant.  The check weighs each run by its
length and takes its first ``μ`` as the witness, which is the class a
row-major visit of every class would have met first.

The classical inner dimensions contribute, per class, a small set of
possible tile displacements ``ΔS_i ∈ {q, q+1}`` derived from the admissible
residues of the skewed numerator; the lexicographic intra-block check
enumerates the (at most ``2^(n-1)``) combinations.  The classical and
diamond schedules reduce the same way over ``l mod lcm(P, k)`` (and
``s0 mod size``).

A dependence is **ordered** when, in every residue class, the source's
schedule coordinates strictly precede the sink's at a *sequential* level
before differing at any parallel one — exactly the execution model
:mod:`repro.tiling.validate` enumerates: sequential ``T``/phases (hybrid),
sequential wavefronts (classical/diamond), parallel tiles within a
launch/wavefront, sequential inner tile loops, barrier-stepped local time,
parallel threads within a barrier step.  Any class where that fails is a
race, reported with a concrete counterexample pair reconstructed at small
tile indices (valid on every grid large enough to contain it).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any

from repro._record import dataclass
from repro.verify.report import (
    Instance,
    RaceFinding,
    ScheduleVerdict,
    VerificationError,
)

if TYPE_CHECKING:  # imported lazily at runtime to keep layering loose
    from repro.model.preprocess import CanonicalForm
    from repro.tiling.classical import ClassicalTiling
    from repro.tiling.diamond import DiamondTiling
    from repro.tiling.hybrid import HybridTiling

#: Cap on reported coverage findings of each kind (gap, overlap) — one
#: witness proves the schedule wrong; thousands restate it.
_MAX_COVERAGE_FINDINGS = 3


# -- the hybrid schedule model --------------------------------------------------------


@dataclass(frozen=True)
class InnerDim:
    """One classically tiled inner dimension of the hybrid schedule.

    ``S_i = floor((scale*s_i + skew*u) / (scale*width))`` where ``u`` is the
    local time within the assigned hexagonal phase box and
    ``skew/scale = δ1_i`` is the lower dependence slope of the dimension.
    """

    name: str
    scale: int
    skew: int
    width: int

    @property
    def period(self) -> int:
        """The numerator period ``scale * width`` of one tile."""
        return self.scale * self.width

    def base_residue(self, u: int) -> int:
        """Least numerator residue ``ρ ≡ skew*u (mod scale)`` at local time ``u``."""
        return (self.skew * u) % self.scale


@dataclass(frozen=True)
class HybridScheduleModel:
    """Closed-form parameters of the hybrid schedule, as the verifier sees it.

    Separating the model from :class:`repro.tiling.hybrid.HybridTiling` is
    what makes fault injection possible: the mutation corpus
    (:mod:`repro.verify.faults`) perturbs *this* object — swaps the phase
    order, drops the intra-tile barrier, flips the inner tile ordering,
    shrinks the hexagon — and the verifier must notice every time.

    The execution-model switches mirror the GPU mapping of Section 3.4:
    ``phase_order`` is the launch order of the two kernels within one host
    ``T`` iteration, ``barrier_per_step`` states that consecutive local time
    steps inside a tile are separated by ``__syncthreads()``, and
    ``inner_tiles_ascending`` that the sequential in-kernel loops over
    ``S1..Sn`` run in increasing index order.
    """

    height: int
    num_statements: int
    time_period: int
    space_period: int
    drift: int
    phase0_offset: int
    row_lower: tuple[int, ...]
    row_upper: tuple[int, ...]
    inner: tuple[InnerDim, ...]
    phase_order: tuple[int, int] = (0, 1)
    barrier_per_step: bool = True
    inner_tiles_ascending: bool = True

    @classmethod
    def from_tiling(cls, tiling: "HybridTiling") -> "HybridScheduleModel":
        shape = tiling.shape
        lower, upper = shape._row_bounds
        return cls(
            height=shape.height,
            num_statements=tiling.canonical.num_statements,
            time_period=shape.time_period,
            space_period=shape.space_period,
            drift=shape.drift,
            phase0_offset=shape.floor_delta0_h + shape.width + 1,
            row_lower=lower,
            row_upper=upper,
            inner=tuple(
                InnerDim(
                    name=classical.dim_name,
                    scale=classical.scale,
                    skew=classical.skew_numerator,
                    width=classical.width,
                )
                for classical in tiling.classical
            ),
        )


def _admissible_displacements(
    dim: InnerDim, distance: int, u_sink: int, u_src: int
) -> list[tuple[int, int]]:
    """Possible inner tile displacements ``ΔS_i`` with a residue witness.

    For a sink numerator residue ``ρ`` (which must satisfy
    ``ρ ≡ skew*u_sink (mod scale)`` to come from an integer ``s_i``), the
    displacement is ``floor((ρ + δ)/period)`` with
    ``δ = -scale*ds_i + skew*(u_src - u_sink)``.  The residues form the
    progression ``base, base + scale, ..., last`` inside one period, so the
    displacement takes at most two values: ``low`` at ``base`` and ``high``
    at ``last``, first reached at the smallest ``ρ >= high*period - δ``.
    Returns the distinct values, each with its smallest witness ``ρ``.
    """
    period = dim.period
    delta = -dim.scale * distance + dim.skew * (u_src - u_sink)
    base = dim.base_residue(u_sink)
    last = base + (period - 1 - base) // dim.scale * dim.scale
    low = (base + delta) // period
    high = (last + delta) // period
    if high == low:
        return [(low, base)]
    threshold = high * period - delta
    return [(low, base), (high, base - (base - threshold) // dim.scale * dim.scale)]


def _lex_violation(
    deltas: Sequence[int], du: int, model: HybridScheduleModel
) -> str | None:
    """Which level (if any) fails to order source strictly before sink.

    ``deltas`` are the source-minus-sink inner tile displacements and ``du``
    the local-time displacement; ordering is the lexicographic in-kernel
    nest ``(S1, ..., Sn, t')`` with parallel threads below ``t'``.
    """
    for delta in deltas:
        effective = delta if model.inner_tiles_ascending else -delta
        if effective < 0:
            return None
        if effective > 0:
            return "intra_tile"
    if not model.barrier_per_step:
        return "barrier"
    return "barrier" if du >= 0 else None


# -- counterexample reconstruction ----------------------------------------------------


def _statement_names(canonical: "CanonicalForm") -> list[str]:
    return [statement.name for statement in canonical.program.statements]


def _reconstruct_pair(
    canonical: "CanonicalForm",
    model: HybridScheduleModel,
    lam: int,
    mu: int,
    rhos: Sequence[int],
    dl: int,
    ds: Sequence[int],
    sink: tuple[int, int, int, int],
    source: tuple[int, int, int, int],
) -> tuple[Instance, Instance]:
    """Concrete canonical points realising residue class ``(λ, μ, ρ...)``.

    Inverts the phase-0 box map at generous symbolic indices (``T = t_base``,
    ``S = s_base``) so both endpoints have non-negative coordinates; the pair
    is a member of every grid large enough to contain it.
    """
    p_t, p_s = model.time_period, model.space_period
    half = model.height + 1
    t_base = 2 + (dl + half) // p_t
    s_base = 3 + (
        abs(int(ds[0])) + (t_base + 1) * abs(model.drift) + model.phase0_offset
    ) // p_s
    logical = t_base * p_t + lam - half
    s0 = s_base * p_s + mu - model.phase0_offset - t_base * model.drift
    coords = [logical, s0]
    u_sink = sink[3]
    for dim, rho in zip(model.inner, rhos):
        numerator = 2 * dim.period + rho
        coords.append((numerator - dim.skew * u_sink) // dim.scale)
    sink_point = tuple(coords)
    source_point = tuple(c - d for c, d in zip(sink_point, (dl, *ds)))
    names = _statement_names(canonical)

    def instance(point: tuple[int, ...], rel: tuple[int, int, int, int]) -> Instance:
        index, t, space = canonical.from_canonical(point)
        t_off, phase, s_off, local = rel
        return Instance(
            statement=names[index],
            t=t,
            point=space,
            schedule=(("T", t_base + t_off), ("phase", phase),
                      ("S0", s_base + s_off), ("t'", local)),
        )

    return instance(source_point, source), instance(sink_point, sink)


# -- hybrid verification --------------------------------------------------------------

#: One phase box a displaced point of row ``λ`` may fall in:
#: ``(t_offset, local_a, shift, lower, upper)``.  The point at ``μ`` has box
#: coordinate ``(μ + shift) mod P_s`` and ``S0`` offset ``(μ + shift) // P_s``,
#: and the box holds it iff ``lower <= (μ + shift) mod P_s <= upper``.
_Box = tuple[int, int, int, int, int]
#: Where a point lands, relative to the class anchor's symbolic ``(T, S)``:
#: ``(t_offset, phase, s_offset, local_a)``.
_Claim = tuple[int, int, int, int]
#: One run of classes: its row ``λ``, first ``μ``, and the sink's and the
#: source's claims, the same on every class of the run.
_Witness = tuple[int, int, _Claim, _Claim]


def _phase_boxes(
    model: HybridScheduleModel, lam: int, dl: int, ds: int
) -> tuple[_Box, _Box]:
    """The two phase boxes of the point displaced by ``(-dl, -ds)`` from row ``λ``.

    All tile indices are offsets against the anchor's symbolic ``(T, S)``,
    which is what makes the comparison size-independent.  The row bounds
    are clipped to the box coordinates ``[0, P_s)`` (mutants shift them
    outside it).
    """
    p_t, p_s = model.time_period, model.space_period

    def box(raw: int, offset: int) -> _Box:
        t_offset, local_a = divmod(raw, p_t)
        shift = t_offset * model.drift - offset - ds
        lower = max(model.row_lower[local_a], 0)
        upper = min(model.row_upper[local_a], p_s - 1)
        return t_offset, local_a, shift, lower, upper

    return (
        box(lam - dl, 0),
        box(lam - dl - model.height - 1, model.phase0_offset),
    )


def _cuts(boxes: Sequence[_Box], p_s: int) -> set[int]:
    """Every ``μ`` at which a point's claim may change along its row.

    Membership of a box flips where the box coordinate reaches ``lower`` or
    passes ``upper``.  The ``S0`` offset steps where the coordinate wraps
    from ``P_s - 1`` to 0, which inside a box is at ``lower = 0`` or past
    ``upper = P_s - 1``: a cut already.
    """
    return {
        (edge - shift) % p_s
        for _, _, shift, lower, upper in boxes
        if lower <= upper
        for edge in (lower, upper + 1)
    }


def _runs(cuts: set[int], period: int) -> Iterable[tuple[int, int]]:
    """The ``[start, stop)`` runs of a residue in ``[0, period)`` between
    sorted cuts: ``μ`` along a hybrid row, ``σ`` along a diamond row."""
    edges = sorted(cuts | {0})
    return zip(edges, [*edges[1:], period])


def _claim(boxes: Sequence[_Box], mu: int, p_s: int) -> _Claim | None:
    """The first phase box holding the point at ``μ``, or ``None``."""
    for phase, (t_offset, local_a, shift, lower, upper) in enumerate(boxes):
        s_offset, b = divmod(mu + shift, p_s)
        if lower <= b <= upper:
            return t_offset, phase, s_offset, local_a
    return None


def _check_coverage(
    model: HybridScheduleModel,
    canonical: "CanonicalForm",
    rows: Sequence[tuple[_Box, _Box]],
) -> tuple[bool, list[RaceFinding]]:
    """Prove the two phases partition the ``(l, s0)`` plane, symbolically.

    Residue classes again: for every ``(λ, μ)`` exactly one of the two phase
    boxes must claim the point.  Holds for every grid iff it holds per class.
    ``rows`` holds the undisplaced phase boxes of every row ``λ``.
    """
    p_s = model.space_period
    found: dict[str, list[tuple[int, int, int]]] = {"no phase": [], "both phases": []}
    for lam, boxes in enumerate(rows):
        for start, stop in _runs(_cuts(boxes, p_s), p_s):
            in_p0, in_p1 = (
                lower <= (start + shift) % p_s <= upper
                for _, _, shift, lower, upper in boxes
            )
            if in_p0 != in_p1:
                continue
            witnesses = found["both phases" if in_p0 else "no phase"]
            # The sink's claim: the first phase that holds it, else phase 1.
            phase = 0 if in_p0 else 1
            stop = min(stop, start + _MAX_COVERAGE_FINDINGS - len(witnesses))
            witnesses.extend((lam, mu, phase) for mu in range(start, stop))
    findings: list[RaceFinding] = []
    for kind, witnesses in found.items():
        for lam, mu, phase in witnesses:
            local = (0, phase, 0, rows[lam][phase][1])
            witness, _ = _reconstruct_pair(
                canonical,
                model,
                lam,
                mu,
                [0] * len(model.inner),
                0,
                (0,) * (len(model.inner) + 1),
                local,
                local,
            )
            findings.append(
                RaceFinding(
                    strategy="hybrid",
                    dependence="<coverage>",
                    level="coverage",
                    message=(
                        f"phase partition broken: point (λ={lam}, μ={mu}) of "
                        f"the (l, s0) plane is claimed by {kind}"
                    ),
                    sink=witness,
                )
            )
    return not findings, findings


def _race(
    canonical: "CanonicalForm",
    model: HybridScheduleModel,
    dependence: Any,
    witness: _Witness,
    level: str,
    message: str,
    rhos: Sequence[int] | None = None,
) -> RaceFinding:
    """The finding of one witness run, with its counterexample pair.

    ``rhos`` are the sink's inner numerator residues, by default the least
    ones at its local time.
    """
    lam, mu, sink, source = witness
    if rhos is None:
        rhos = [dim.base_residue(sink[3]) for dim in model.inner]
    src_instance, sink_instance = _reconstruct_pair(
        canonical,
        model,
        lam,
        mu,
        rhos,
        dependence.time_distance,
        dependence.space_distances,
        sink,
        source,
    )
    return RaceFinding(
        strategy="hybrid",
        dependence=str(dependence),
        level=level,
        message=message.format(source=src_instance, sink=sink_instance),
        source=src_instance,
        sink=sink_instance,
    )


def _intra_tile_race(
    canonical: "CanonicalForm",
    model: HybridScheduleModel,
    dependence: Any,
    same_tile: Iterable[_Witness],
) -> RaceFinding | None:
    """The first same-tile witness the in-kernel loop nest fails to order.

    The intra-tile verdict depends on the local-time pair alone, and inside
    one tile the source's local time is the sink's minus ``dl``, so
    ``same_tile`` holds one witness per sink local time: its first class.
    """
    for witness in same_tile:
        _, _, sink, source = witness
        u_sink, u_src = sink[3], source[3]
        per_dim = [
            _admissible_displacements(dim, distance, u_sink, u_src)
            for dim, distance in zip(model.inner, dependence.space_distances[1:])
        ]
        for combo in itertools.product(*per_dim):
            deltas = [value for value, _ in combo]
            level = _lex_violation(deltas, u_src - u_sink, model)
            if level is None:
                continue
            key_src = (*deltas, u_src)
            key_sink = (*([0] * len(deltas)), u_sink)
            if level == "barrier" and not model.barrier_per_step:
                text = (
                    f"dependence {dependence} violated inside tile: "
                    f"no barrier orders local time {u_src} before "
                    f"{u_sink} ({{source}} -> {{sink}})"
                )
            else:
                text = (
                    f"dependence {dependence} violated inside tile: "
                    f"source inner coordinates {key_src} do not "
                    f"precede {key_sink} ({{source}} -> {{sink}})"
                )
            rhos = [rho for _, rho in combo]
            return _race(canonical, model, dependence, witness, level, text, rhos)
    return None


def verify_hybrid(
    canonical: "CanonicalForm",
    tiling_or_model: "HybridTiling | HybridScheduleModel",
) -> ScheduleVerdict:
    """Decide legality of the hybrid schedule for all problem sizes.

    Each dependence reports at most one race: the first class, in row-major
    ``(λ, μ)`` order, that executes the source after the sink; else the
    first that crosses concurrent blocks; else the first intra-tile race.
    """
    if isinstance(tiling_or_model, HybridScheduleModel):
        model = tiling_or_model
    else:
        model = HybridScheduleModel.from_tiling(tiling_or_model)
    k = model.num_statements
    p_t, p_s = model.time_period, model.space_period
    half = model.height + 1
    if half % k != 0:
        raise VerificationError(
            "symbolic hybrid verification requires statement-aligned tiles "
            f"((h+1) divisible by {k}); got h={model.height}"
        )
    names = _statement_names(canonical)
    name_to_index = {name: index for index, name in enumerate(names)}

    rows = [_phase_boxes(model, lam, 0, 0) for lam in range(p_t)]
    row_cuts = [_cuts(boxes, p_s) for boxes in rows]
    coverage_ok, findings = _check_coverage(model, canonical, rows)
    first_phase = model.phase_order[0]

    classes_checked = 0
    for dependence in canonical.dependences:
        dl = dependence.time_distance
        ds = dependence.space_distances
        sink_index = name_to_index[dependence.sink]
        source_index = name_to_index[dependence.source]
        if (sink_index - dl) % k != source_index:
            # No instance pair realises this combination of statement slots.
            continue
        after: _Witness | None = None
        crossing: _Witness | None = None
        same_tile: dict[int, _Witness] = {}
        # Only rows whose sink slot (λ - h - 1) mod k is the sink statement.
        for lam in range((sink_index + half) % k, p_t, k):
            sink_boxes = rows[lam]
            source_boxes = _phase_boxes(model, lam, dl, ds[0])
            cuts = row_cuts[lam] | _cuts(source_boxes, p_s)
            for start, stop in _runs(cuts, p_s):
                sink = _claim(sink_boxes, start, p_s)
                source = _claim(source_boxes, start, p_s)
                if sink is None or source is None:
                    continue  # unclaimed points are coverage findings
                classes_checked += stop - start
                # Keep the first witness of each level, in row-major order.
                witness = (lam, start, sink, source)
                # The sequential outer levels: time tile T, then phase rank.
                sink_outer = (sink[0], sink[1] != first_phase)
                source_outer = (source[0], source[1] != first_phase)
                if source_outer > sink_outer:
                    after = after or witness
                elif source_outer < sink_outer:
                    continue  # ordered by T or by phase
                elif source[2] != sink[2]:
                    crossing = crossing or witness
                else:
                    same_tile.setdefault(sink[3], witness)

        race: RaceFinding | None
        if after is not None:
            _, _, sink, source = after
            race = _race(
                canonical, model, dependence, after,
                "time_tile" if source[0] != sink[0] else "phase",
                f"dependence {dependence} violated: source tile of {{source}} "
                f"executes after sink tile of {{sink}}",
            )
        elif crossing is not None:
            race = _race(
                canonical, model, dependence, crossing, "block",
                f"dependence {dependence} crosses concurrent blocks: "
                f"{{source}} -> {{sink}}",
            )
        else:
            race = _intra_tile_race(canonical, model, dependence, same_tile.values())
        if race is not None:
            findings.append(race)

    ordering = [f for f in findings if f.level != "coverage"]
    coverage = [f for f in findings if f.level == "coverage"]
    return ScheduleVerdict(
        strategy="hybrid",
        dependences_checked=len(canonical.dependences),
        classes_checked=classes_checked,
        races=tuple(coverage + ordering),
        coverage_ok=coverage_ok,
        notes=(
            "counterexamples are stated at small tile indices and hold on "
            "every grid large enough to contain them",
        ),
    )


# -- classical verification -----------------------------------------------------------


def verify_classical(
    canonical: "CanonicalForm", tilings: Sequence["ClassicalTiling"]
) -> ScheduleVerdict:
    """Decide legality of the classical wavefront schedule for all sizes.

    Execution model: time bands ``TT = l // (h+1)`` are sequential (one
    kernel launch per wavefront step), tiles within a band execute by
    wavefronts ``W = ΣS_i`` — same wavefront means concurrent — and inside a
    tile local time is barrier-stepped.
    """
    if not tilings:
        raise VerificationError("classical verification needs at least one tiling")
    period = tilings[0].time_period
    if any(t.time_period != period for t in tilings):
        raise VerificationError("classical tilings disagree on the time period")
    k = canonical.num_statements
    names = _statement_names(canonical)
    name_to_index = {name: index for index, name in enumerate(names)}
    dims = [
        InnerDim(
            name=t.dim_name,
            scale=t.scale,
            skew=t.skew_numerator,
            width=t.width,
        )
        for t in tilings
    ]
    span = math.lcm(period, k)

    races: list[RaceFinding] = []
    classes_checked = 0
    for dependence in canonical.dependences:
        dl = dependence.time_distance
        ds = dependence.space_distances
        sink_index = name_to_index[dependence.sink]
        source_index = name_to_index[dependence.source]
        if (sink_index - dl) % k != source_index:
            continue
        found = False
        for lam in range(sink_index, span, k):
            classes_checked += 1
            band_delta = (lam - dl) // period - lam // period
            if band_delta > 0:
                races.append(
                    _classical_race(
                        canonical, dims, period, lam, dl, ds, dependence,
                        "time_tile",
                        f"dependence {dependence} violated: source time band "
                        f"executes after sink time band",
                        [d.base_residue(lam % period) for d in dims],
                    )
                )
                found = True
            elif band_delta == 0:
                u_sink = lam % period
                u_src = (lam - dl) % period
                per_dim = [
                    _admissible_displacements(dim, distance, u_sink, u_src)
                    for dim, distance in zip(dims, ds)
                ]
                for combo in itertools.product(*per_dim):
                    deltas = [value for value, _ in combo]
                    total = sum(deltas)
                    level: str | None = None
                    if total > 0:
                        level = "wavefront"
                        message = (
                            f"dependence {dependence} violated: source "
                            f"wavefront {total:+d} executes after sink wavefront"
                        )
                    elif total == 0 and any(deltas):
                        level = "block"
                        message = (
                            f"dependence {dependence} crosses concurrent tiles "
                            f"on one wavefront (ΔS={tuple(deltas)})"
                        )
                    elif not any(deltas) and u_src >= u_sink:
                        level = "barrier"
                        message = (
                            f"dependence {dependence} violated inside tile: "
                            f"local time {u_src} does not precede {u_sink}"
                        )
                    if level is not None:
                        races.append(
                            _classical_race(
                                canonical, dims, period, lam, dl, ds,
                                dependence, level, message,
                                [rho for _, rho in combo],
                            )
                        )
                        found = True
                        break
            if found:
                break

    return ScheduleVerdict(
        strategy="classical",
        dependences_checked=len(canonical.dependences),
        classes_checked=classes_checked,
        races=tuple(races),
        coverage_ok=True,
        notes=("strip-mined bands and floor-divided tiles partition by construction",),
    )


def _classical_race(
    canonical: "CanonicalForm",
    dims: Sequence[InnerDim],
    period: int,
    lam: int,
    dl: int,
    ds: Sequence[int],
    dependence: Any,
    level: str,
    message: str,
    rhos: Sequence[int],
) -> RaceFinding:
    span = math.lcm(period, canonical.num_statements)
    base = 1 + dl // span
    logical = base * span + lam
    u_sink = logical % period
    coords = [logical]
    for dim, rho in zip(dims, rhos):
        numerator = 2 * dim.period + rho
        coords.append((numerator - dim.skew * u_sink) // dim.scale)
    sink_point = tuple(coords)
    source_point = tuple(c - d for c, d in zip(sink_point, (dl, *ds)))
    names = _statement_names(canonical)

    def instance(point: tuple[int, ...]) -> Instance:
        index, t, space = canonical.from_canonical(point)
        band = point[0] // period
        tiles = tuple(
            (dim.scale * s + dim.skew * (point[0] % period)) // dim.period
            for dim, s in zip(dims, point[1:])
        )
        return Instance(
            statement=names[index],
            t=t,
            point=space,
            schedule=(
                ("TT", band),
                ("W", sum(tiles)),
                *(
                    (f"S{i + 1}", tile)
                    for i, tile in enumerate(tiles)
                ),
                ("u", point[0] % period),
            ),
        )

    return RaceFinding(
        strategy="classical",
        dependence=str(dependence),
        level=level,
        message=message,
        source=instance(source_point),
        sink=instance(sink_point),
    )


# -- diamond verification -------------------------------------------------------------


def _diamond_level(dependence: Any, d0: int, d1: int) -> tuple[str, str] | None:
    """The level and message of a diamond race at tile displacement
    ``(ΔD0, ΔD1)``, or ``None`` when the schedule orders the dependence."""
    wave = d0 - d1
    if wave > 0:
        return "wavefront", (
            f"dependence {dependence} violated: source wavefront "
            f"{wave:+d} executes after sink wavefront"
        )
    if wave == 0 and (d0 != 0 or d1 != 0):
        return "block", (
            f"dependence {dependence} crosses concurrent diamond "
            f"tiles (ΔD0={d0}, ΔD1={d1})"
        )
    if d0 == 0 and d1 == 0 and dependence.time_distance <= 0:
        return "barrier", (
            f"dependence {dependence} violated inside tile: no "
            f"time step separates source from sink"
        )
    return None


def verify_diamond(
    canonical: "CanonicalForm", tiling: "DiamondTiling"
) -> ScheduleVerdict:
    """Decide legality of the diamond schedule for all problem sizes.

    Execution model: wavefronts ``W = D0 - D1`` are sequential, tiles on one
    wavefront are concurrent, and within a tile the ``l`` steps are
    barrier-stepped with all space dimensions mapped to parallel threads.

    A class ``(λ, σ)`` has the sink residues ``α = (σ + λ) mod size`` and
    ``β = (σ - λ) mod size``, and with ``ds0 + dl = a*size + r`` and
    ``ds0 - dl = b*size + s`` its displacements are ``ΔD0 = -a`` if
    ``α >= r`` else ``-a - 1``, and ``ΔD1 = -b`` if ``β >= s`` else
    ``-b - 1``.  A dependence none of whose four displacements races is
    ordered in every class.  Otherwise each row ``λ`` splits where ``α`` or
    ``β`` wraps or passes its offset, into at most five runs of ``σ`` with
    one verdict each: a run counts all its classes, and a racing run has
    its first ``σ`` as the witness, the class a visit of every ``σ`` in
    order would have stopped at.
    """
    size = tiling.size
    k = canonical.num_statements
    names = _statement_names(canonical)
    name_to_index = {name: index for index, name in enumerate(names)}
    span = math.lcm(size, k)

    races: list[RaceFinding] = []
    classes_checked = 0
    for dependence in canonical.dependences:
        dl = dependence.time_distance
        ds0 = dependence.space_distances[0]
        sink_index = name_to_index[dependence.sink]
        source_index = name_to_index[dependence.source]
        if (sink_index - dl) % k != source_index:
            continue
        rows = range(sink_index, span, k)
        a, r = divmod(ds0 + dl, size)
        b, s = divmod(ds0 - dl, size)
        if not any(
            _diamond_level(dependence, d0, d1)
            for d0 in (-a, -a - 1)
            for d1 in (-b, -b - 1)
        ):
            classes_checked += len(rows) * size
            continue
        found = False
        for lam in rows:
            if found:
                break
            cuts = {-lam % size, (r - lam) % size, lam % size, (s + lam) % size}
            for sigma, stop in _runs(cuts, size):
                d0 = -a if (sigma + lam) % size >= r else -a - 1
                d1 = -b if (sigma - lam) % size >= s else -b - 1
                race = _diamond_level(dependence, d0, d1)
                if race is None:
                    classes_checked += stop - sigma
                    continue
                classes_checked += 1
                races.append(
                    _diamond_race(
                        canonical, tiling, lam, sigma, dl,
                        dependence.space_distances, dependence, *race,
                    )
                )
                found = True
                break

    return ScheduleVerdict(
        strategy="diamond",
        dependences_checked=len(canonical.dependences),
        classes_checked=classes_checked,
        races=tuple(races),
        coverage_ok=True,
        notes=("diamond tiles partition the (l, s0) plane by construction",),
    )


def _diamond_race(
    canonical: "CanonicalForm",
    tiling: "DiamondTiling",
    lam: int,
    sigma: int,
    dl: int,
    ds: Sequence[int],
    dependence: Any,
    level: str,
    message: str,
) -> RaceFinding:
    size = tiling.size
    span = math.lcm(size, canonical.num_statements)
    base_l = 1 + dl // span
    logical = base_l * span + lam
    margin = 2 + (abs(int(ds[0])) + dl) // size
    s0 = margin * size + sigma
    inner = tuple(5 + abs(int(d)) for d in ds[1:])
    sink_point = (logical, s0, *inner)
    source_point = tuple(c - d for c, d in zip(sink_point, (dl, *ds)))
    names = _statement_names(canonical)

    def instance(point: tuple[int, ...]) -> Instance:
        index, t, space = canonical.from_canonical(point)
        d0 = (point[1] + point[0]) // size
        d1 = (point[1] - point[0]) // size
        return Instance(
            statement=names[index],
            t=t,
            point=space,
            schedule=(("W", d0 - d1), ("D0", d0), ("D1", d1)),
        )

    return RaceFinding(
        strategy="diamond",
        dependence=str(dependence),
        level=level,
        message=message,
        source=instance(source_point),
        sink=instance(sink_point),
    )


# -- dispatch -------------------------------------------------------------------------


def verify_tiling_plan(canonical: "CanonicalForm", plan: Any) -> ScheduleVerdict:
    """Verify whatever schedule a :class:`~repro.api.artifacts.TilingPlan` holds."""
    from repro.tiling.diamond import DiamondTiling
    from repro.tiling.hybrid import HybridTiling

    tiling = getattr(plan, "tiling", plan)
    if isinstance(tiling, (HybridTiling, HybridScheduleModel)):
        return verify_hybrid(canonical, tiling)
    if isinstance(tiling, DiamondTiling):
        return verify_diamond(canonical, tiling)
    if isinstance(tiling, Iterable):
        tilings = tuple(tiling)
        if tilings and all(hasattr(t, "skew_numerator") for t in tilings):
            return verify_classical(canonical, tilings)
    raise VerificationError(
        f"no symbolic verifier for schedule object {type(tiling).__name__}"
    )


__all__ = [
    "HybridScheduleModel",
    "InnerDim",
    "verify_classical",
    "verify_diamond",
    "verify_hybrid",
    "verify_tiling_plan",
]

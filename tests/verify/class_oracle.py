"""Brute-force oracles for the symbolic race checks: one class at a time.

``verify_hybrid_by_class`` decides the hybrid schedule the way the verifier
did before it worked over row runs: it assigns every one of the
``P_t × P_s`` residue classes ``(λ, μ)`` to its phase box as NumPy arrays,
masks each dependence's classes, and takes the first witness of each
ordering level in row-major order.  It shares the counterexample
reconstruction and the intra-tile displacement check with
:mod:`repro.verify.symbolic`, not the class assignment, so its verdict must
equal :func:`repro.verify.symbolic.verify_hybrid`'s field for field.

``verify_diamond_by_class`` is the diamond check as it was before it
decided each row ``λ`` by runs of ``σ``: it computes the tile displacement
of every ``(λ, σ)`` class.  It shares the counterexample reconstruction
with :mod:`repro.verify.symbolic`, so its verdict must equal
:func:`repro.verify.symbolic.verify_diamond`'s field for field.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.verify.report import RaceFinding, ScheduleVerdict, VerificationError
from repro.verify.symbolic import (
    HybridScheduleModel,
    _admissible_displacements,
    _diamond_race,
    _lex_violation,
    _reconstruct_pair,
    _statement_names,
)

_MAX_COVERAGE_FINDINGS = 3


def _contains(model: HybridScheduleModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorised membership test of the hexagonal tile shape."""
    lower = np.asarray(model.row_lower)
    upper = np.asarray(model.row_upper)
    in_rows = (a >= 0) & (a < model.time_period)
    clipped = np.where(in_rows, a, 0)
    return in_rows & (b >= lower[clipped]) & (b <= upper[clipped])


@dataclass(frozen=True)
class _Assignment:
    """Phase/tile displacement of one point, per residue class (arrays)."""

    claimed: np.ndarray   # bool — some phase box contains the point
    phase: np.ndarray     # 0 (blue) / 1 (green) where claimed
    t_offset: np.ndarray  # time-tile index relative to the symbolic base T
    s_offset: np.ndarray  # S0 index relative to the symbolic base S
    local_a: np.ndarray   # local time within the claiming phase box


def _assign_relative(
    model: HybridScheduleModel, lam: np.ndarray, mu: np.ndarray, dl: int, ds: int
) -> _Assignment:
    """Assign the point displaced by ``(-dl, -ds)`` from the class anchor."""
    p_t, p_s = model.time_period, model.space_period
    half = model.height + 1
    offset = model.phase0_offset

    raw0 = lam - dl
    e0 = raw0 // p_t
    a0 = raw0 - e0 * p_t
    n0 = mu - ds + e0 * model.drift
    s0_off = n0 // p_s
    b0 = n0 - s0_off * p_s
    in_p0 = _contains(model, a0, b0)

    raw1 = lam - dl - half
    e1 = raw1 // p_t
    a1 = raw1 - e1 * p_t
    n1 = mu - offset - ds + e1 * model.drift
    s1_off = n1 // p_s
    b1 = n1 - s1_off * p_s
    in_p1 = _contains(model, a1, b1)

    return _Assignment(
        claimed=in_p0 | in_p1,
        phase=np.where(in_p0, 0, 1),
        t_offset=np.where(in_p0, e0, e1),
        s_offset=np.where(in_p0, s0_off, s1_off),
        local_a=np.where(in_p0, a0, a1),
    )


def _check_coverage(
    model: HybridScheduleModel,
    canonical,
    lam: np.ndarray,
    mu: np.ndarray,
    sink: _Assignment,
) -> tuple[bool, list[RaceFinding]]:
    """Exactly one of the two phase boxes must claim every class."""
    p_t, p_s = model.time_period, model.space_period
    half = model.height + 1
    e1 = np.where(lam >= half, 0, -1)
    a1 = (lam - half) % p_t
    n1 = mu - model.phase0_offset + e1 * model.drift
    b1 = n1 % p_s
    in_p0 = _contains(model, lam, mu)
    in_p1 = _contains(model, a1, b1)
    gaps = ~in_p0 & ~in_p1
    overlaps = in_p0 & in_p1
    findings: list[RaceFinding] = []
    for kind, mask in (("no phase", gaps), ("both phases", overlaps)):
        for index in np.flatnonzero(mask)[:_MAX_COVERAGE_FINDINGS]:
            witness, _ = _reconstruct_pair(
                canonical,
                model,
                int(lam[index]),
                int(mu[index]),
                [0] * len(model.inner),
                0,
                (0,) * (len(model.inner) + 1),
                (0, int(sink.phase[index]), 0, int(sink.local_a[index])),
                (0, int(sink.phase[index]), 0, int(sink.local_a[index])),
            )
            findings.append(
                RaceFinding(
                    strategy="hybrid",
                    dependence="<coverage>",
                    level="coverage",
                    message=(
                        f"phase partition broken: point (λ={int(lam[index])}, "
                        f"μ={int(mu[index])}) of the (l, s0) plane is claimed "
                        f"by {kind}"
                    ),
                    sink=witness,
                )
            )
    return not findings, findings


def verify_hybrid_by_class(
    canonical, model: HybridScheduleModel
) -> ScheduleVerdict:
    """The hybrid verdict, every residue class assigned on its own."""
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

    lam, mu = np.meshgrid(np.arange(p_t), np.arange(p_s), indexing="ij")
    lam, mu = lam.ravel(), mu.ravel()
    sink = _assign_relative(model, lam, mu, 0, 0)
    coverage_ok, findings = _check_coverage(model, canonical, lam, mu, sink)
    sink_rank = np.where(sink.phase == model.phase_order[0], 0, 1)

    classes_checked = 0
    for dependence in canonical.dependences:
        dl = dependence.time_distance
        ds = dependence.space_distances
        sink_index = name_to_index[dependence.sink]
        source_index = name_to_index[dependence.source]
        if (sink_index - dl) % k != source_index:
            continue
        mask = ((lam - half) % k == sink_index) & sink.claimed
        source = _assign_relative(model, lam, mu, dl, ds[0])
        mask &= source.claimed
        classes_checked += int(mask.sum())
        src_rank = np.where(source.phase == model.phase_order[0], 0, 1)

        outer_after = (source.t_offset > sink.t_offset) | (
            (source.t_offset == sink.t_offset) & (src_rank > sink_rank)
        )
        outer_equal = (source.t_offset == sink.t_offset) & (src_rank == sink_rank)
        crosses = outer_equal & (source.s_offset != sink.s_offset)
        same_tile = outer_equal & (source.s_offset == sink.s_offset)

        races: list[RaceFinding] = []

        def record(
            index: int,
            level: str,
            message: str,
            rhos: Sequence[int],
        ) -> None:
            src_instance, sink_instance = _reconstruct_pair(
                canonical,
                model,
                int(lam[index]),
                int(mu[index]),
                rhos,
                dl,
                ds,
                (
                    int(sink.t_offset[index]),
                    int(sink.phase[index]),
                    int(sink.s_offset[index]),
                    int(sink.local_a[index]),
                ),
                (
                    int(source.t_offset[index]),
                    int(source.phase[index]),
                    int(source.s_offset[index]),
                    int(source.local_a[index]),
                ),
            )
            races.append(
                RaceFinding(
                    strategy="hybrid",
                    dependence=str(dependence),
                    level=level,
                    message=message.format(source=src_instance, sink=sink_instance),
                    source=src_instance,
                    sink=sink_instance,
                )
            )

        for index in np.flatnonzero(mask & outer_after):
            level = (
                "time_tile"
                if source.t_offset[index] != sink.t_offset[index]
                else "phase"
            )
            rhos = [dim.base_residue(int(sink.local_a[index])) for dim in model.inner]
            record(
                index,
                level,
                f"dependence {dependence} violated: source tile of {{source}} "
                f"executes after sink tile of {{sink}}",
                rhos,
            )
            break
        if not races:
            for index in np.flatnonzero(mask & crosses):
                rhos = [
                    dim.base_residue(int(sink.local_a[index])) for dim in model.inner
                ]
                record(
                    index,
                    "block",
                    f"dependence {dependence} crosses concurrent blocks: "
                    f"{{source}} -> {{sink}}",
                    rhos,
                )
                break
        if not races:
            same = np.flatnonzero(mask & same_tile)
            _, first = np.unique(sink.local_a[same], return_index=True)
            for index in same[np.sort(first)]:
                u_sink = int(sink.local_a[index])
                u_src = int(source.local_a[index])
                per_dim = [
                    _admissible_displacements(dim, distance, u_sink, u_src)
                    for dim, distance in zip(model.inner, ds[1:])
                ]
                for combo in itertools.product(*per_dim):
                    deltas = [value for value, _ in combo]
                    level = _lex_violation(deltas, u_src - u_sink, model)
                    if level is None:
                        continue
                    rhos = [rho for _, rho in combo]
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
                    record(index, level, text, rhos)
                    break
                if races:
                    break
        findings.extend(races[:1])

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


def verify_diamond_by_class(canonical, tiling) -> ScheduleVerdict:
    """Decide legality of the diamond schedule for all problem sizes.

    Execution model: wavefronts ``W = D0 - D1`` are sequential, tiles on one
    wavefront are concurrent, and within a tile the ``l`` steps are
    barrier-stepped with all space dimensions mapped to parallel threads.
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
        found = False
        for lam in range(sink_index, span, k):
            if found:
                break
            for sigma in range(size):
                classes_checked += 1
                alpha = (sigma + lam) % size
                beta = (sigma - lam) % size
                d0 = (alpha - (ds0 + dl)) // size
                d1 = (beta - (ds0 - dl)) // size
                wave = d0 - d1
                level: str | None = None
                if wave > 0:
                    level = "wavefront"
                    message = (
                        f"dependence {dependence} violated: source wavefront "
                        f"{wave:+d} executes after sink wavefront"
                    )
                elif wave == 0 and (d0 != 0 or d1 != 0):
                    level = "block"
                    message = (
                        f"dependence {dependence} crosses concurrent diamond "
                        f"tiles (ΔD0={d0}, ΔD1={d1})"
                    )
                elif d0 == 0 and d1 == 0 and dl <= 0:
                    level = "barrier"
                    message = (
                        f"dependence {dependence} violated inside tile: no "
                        f"time step separates source from sink"
                    )
                if level is not None:
                    races.append(
                        _diamond_race(
                            canonical, tiling, lam, sigma, dl,
                            dependence.space_distances, dependence, level,
                            message,
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

"""The exact-LP polyhedral enumerator, kept as a test oracle.

The compiler's statement domains are boxes: ``CanonicalForm.instances_array``
builds them with one ``np.meshgrid`` per statement.  This module keeps the
general machinery the box replaced, sharing no code with it:

* a two-phase simplex over exact rationals (Bland's rule, free variables);
* :class:`BasicSet`, the integer points of a conjunction of affine
  constraints, enumerated dimension by dimension with LP bounds and
  projected with Fourier–Motzkin;
* :func:`instances`, the statement domains of Section 3.2 written as
  constraint systems and enumerated through :class:`BasicSet`;
* :func:`cone_lp`, the slope LP of Section 3.3.2 that bounds the dependence
  cone.

The operations on :class:`~repro.polyhedral.affine.LinearExpr` and
:class:`~repro.polyhedral.constraint.Constraint` that only this machinery
needs are functions here.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from repro.polyhedral.affine import LinearExpr, Rational
from repro.polyhedral.constraint import Constraint
from repro.tiling.cone import DependenceCone

# -- affine expressions -----------------------------------------------------------


def coefficient(expr: LinearExpr, name: str) -> Fraction:
    """Coefficient of variable ``name`` (zero if absent)."""
    return expr.coeffs.get(name, Fraction(0))


def variables(expr: LinearExpr) -> set[str]:
    """Names of variables with a non-zero coefficient."""
    return set(expr.coeffs)


def is_constant(expr: LinearExpr) -> bool:
    return not expr.coeffs


def is_zero(expr: LinearExpr) -> bool:
    return is_constant(expr) and expr.constant == 0


def evaluate(expr: LinearExpr, env: Mapping[str, Rational]) -> Fraction:
    """Evaluate the expression in an environment mapping names to values."""
    total = expr.constant
    for name, coeff in expr.coeffs.items():
        if name not in env:
            raise KeyError(f"no value for variable {name!r}")
        total += coeff * env[name]
    return total


def substitute(
    expr: LinearExpr, bindings: Mapping[str, LinearExpr | Rational]
) -> LinearExpr:
    """Substitute variables by affine expressions (or constants)."""
    result = LinearExpr.const(expr.constant)
    for name, coeff in expr.coeffs.items():
        if name in bindings:
            result = result + bindings[name] * coeff
        else:
            result = result + LinearExpr.var(name, coeff)
    return result


def rename(expr: LinearExpr, mapping: Mapping[str, str]) -> LinearExpr:
    """Rename variables according to ``mapping`` (unknown names kept)."""
    return LinearExpr(
        {mapping.get(name, name): value for name, value in expr.coeffs.items()},
        expr.constant,
    )


def integer_coeffs(expr: LinearExpr, order: Iterable[str]) -> tuple[list[int], int]:
    """Integer ``(coefficients, constant)`` of the scaled expression, in ``order``."""
    scaled = expr.scaled_to_integers()
    return [int(coefficient(scaled, name)) for name in order], int(scaled.constant)


# -- constraints --------------------------------------------------------------------


def eq(lhs: LinearExpr | Rational, rhs: LinearExpr | Rational) -> Constraint:
    """Constraint ``lhs == rhs``."""
    return Constraint(LinearExpr.const(0) + lhs - rhs, is_equality=True)


def gt(lhs: LinearExpr | Rational, rhs: LinearExpr | Rational) -> Constraint:
    """Strict ``lhs > rhs`` over the integers, i.e. ``lhs >= rhs + 1``.

    Strictness over the integers is only exact when the scaled constraint
    has integer coefficients; the constraint is normalised accordingly.
    """
    scaled = (LinearExpr.const(0) + lhs - rhs).scaled_to_integers()
    return Constraint(scaled - 1, is_equality=False)


def lt(lhs: LinearExpr | Rational, rhs: LinearExpr | Rational) -> Constraint:
    """Strict ``lhs < rhs`` over the integers."""
    return gt(rhs, lhs)


def satisfied(constraint: Constraint, env: Mapping[str, Rational]) -> bool:
    """Whether the constraint holds in the given environment."""
    value = evaluate(constraint.expr, env)
    return value == 0 if constraint.is_equality else value >= 0


def is_trivially_true(constraint: Constraint) -> bool:
    """Constant constraint that always holds."""
    if not is_constant(constraint.expr):
        return False
    if constraint.is_equality:
        return constraint.expr.constant == 0
    return constraint.expr.constant >= 0


def is_trivially_false(constraint: Constraint) -> bool:
    """Constant constraint that never holds."""
    if not is_constant(constraint.expr):
        return False
    if constraint.is_equality:
        return constraint.expr.constant != 0
    return constraint.expr.constant < 0


def normalized(constraint: Constraint) -> Constraint:
    """Scale to integer coefficients with gcd 1 (preserving the sense)."""
    scaled = constraint.expr.scaled_to_integers()
    values = [abs(int(v)) for v in scaled.coeffs.values()]
    divisor = math.gcd(abs(int(scaled.constant)), *values)
    if divisor > 1:
        scaled = scaled * Fraction(1, divisor)
    return Constraint(scaled, constraint.is_equality)


def negated(constraint: Constraint) -> list[Constraint]:
    """Integer negation of the constraint.

    ``expr >= 0`` becomes ``-expr - 1 >= 0`` (i.e. ``expr <= -1``); an
    equality becomes two disjuncts, which is why a list is returned.
    """
    scaled = constraint.expr.scaled_to_integers()
    if constraint.is_equality:
        return [
            Constraint(scaled * -1 - 1, is_equality=False),
            Constraint(scaled - 1, is_equality=False),
        ]
    return [Constraint(scaled * -1 - 1, is_equality=False)]


def substitute_constraint(
    constraint: Constraint, bindings: Mapping[str, LinearExpr | Rational]
) -> Constraint:
    return Constraint(substitute(constraint.expr, bindings), constraint.is_equality)


# -- exact rational linear programming ------------------------------------------------


class LPStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """Result of an LP solve.

    ``value`` and ``point`` are only meaningful when ``status`` is
    :attr:`LPStatus.OPTIMAL`.
    """

    status: LPStatus
    value: Fraction | None = None
    point: dict[str, Fraction] | None = None


def lp_minimize(
    objective: LinearExpr,
    constraints: Sequence[Constraint],
    variables: Sequence[str] | None = None,
) -> LPResult:
    """Minimise ``objective`` subject to ``constraints`` over the rationals.

    Variables are free (may take any sign).  ``variables`` fixes the variable
    order and may include variables not mentioned in the constraints.
    """
    return _Simplex(objective, constraints, variables).solve()


def lp_maximize(
    objective: LinearExpr,
    constraints: Sequence[Constraint],
    variables: Sequence[str] | None = None,
) -> LPResult:
    """Maximise ``objective`` subject to ``constraints`` over the rationals."""
    result = lp_minimize(objective * -1, constraints, variables)
    if result.status is LPStatus.OPTIMAL:
        return LPResult(LPStatus.OPTIMAL, -result.value, result.point)
    return result


def lp_feasible(
    constraints: Sequence[Constraint],
    variables: Sequence[str] | None = None,
) -> bool:
    """Whether the constraint system has a rational solution."""
    result = lp_minimize(LinearExpr.const(0), constraints, variables)
    return result.status is not LPStatus.INFEASIBLE


class _Simplex:
    """Two-phase tableau simplex over exact rationals.

    Each free variable ``x`` becomes ``x_pos - x_neg`` with both ``>= 0``;
    constraints become equalities with slack variables, and phase 1 adds one
    artificial variable per row.  Column layout:
    ``[pos_0, neg_0, pos_1, neg_1, ..., slacks..., artificials...]``.
    """

    def __init__(
        self,
        objective: LinearExpr,
        constraints: Sequence[Constraint],
        names: Sequence[str] | None,
    ) -> None:
        ordered: list[str] = list(names) if names is not None else []
        seen = set(ordered)
        for source in [objective, *[c.expr for c in constraints]]:
            for name in sorted(variables(source)):
                if name not in seen:
                    ordered.append(name)
                    seen.add(name)
        self.var_names = ordered
        self.objective = objective
        self.constraints = list(constraints)

    def solve(self) -> LPResult:
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        n_split = 2 * len(self.var_names)

        row_specs: list[tuple[list[Fraction], Fraction, bool]] = []
        for constraint in self.constraints:
            coeffs = [coefficient(constraint.expr, v) for v in self.var_names]
            const = constraint.expr.constant
            if constraint.is_equality:
                # sum coeffs*x + const == 0  ->  sum coeffs*x == -const
                row_specs.append((coeffs, -const, True))
            else:
                # sum coeffs*x + const >= 0  ->  -sum coeffs*x <= const
                row_specs.append(([-c for c in coeffs], const, False))

        n_slack = sum(1 for _, _, is_eq in row_specs if not is_eq)
        slack_index = 0
        for coeffs, bound, is_eq in row_specs:
            row = [Fraction(0)] * (n_split + n_slack)
            for j, coeff in enumerate(coeffs):
                row[2 * j] = coeff
                row[2 * j + 1] = -coeff
            if not is_eq:
                row[n_split + slack_index] = Fraction(1)
                slack_index += 1
            rows.append(row)
            rhs.append(bound)

        # Make all right-hand sides non-negative.
        for i in range(len(rows)):
            if rhs[i] < 0:
                rows[i] = [-v for v in rows[i]]
                rhs[i] = -rhs[i]

        n_total = n_split + n_slack
        n_rows = len(rows)
        for i in range(n_rows):
            rows[i] = rows[i] + [
                Fraction(1) if j == i else Fraction(0) for j in range(n_rows)
            ]
        basis = [n_total + i for i in range(n_rows)]
        n_cols = n_total + n_rows
        tableau = [rows[i] + [rhs[i]] for i in range(n_rows)]

        # Phase 1: minimise the sum of artificial variables.
        phase1_costs = [Fraction(0)] * n_total + [Fraction(1)] * n_rows
        self._optimize(tableau, basis, phase1_costs, n_cols)
        if self._objective_value(tableau, basis, phase1_costs) != 0:
            return LPResult(LPStatus.INFEASIBLE)

        # Drive artificial variables out of the basis where possible.
        for i in range(n_rows):
            if basis[i] >= n_total:
                for j in range(n_total):
                    if tableau[i][j] != 0:
                        self._pivot(tableau, basis, i, j)
                        break

        # Phase 2: the original objective; artificial columns never re-enter.
        phase2_costs = [Fraction(0)] * n_cols
        for j, name in enumerate(self.var_names):
            coeff = coefficient(self.objective, name)
            phase2_costs[2 * j] = coeff
            phase2_costs[2 * j + 1] = -coeff
        if self._optimize(tableau, basis, phase2_costs, n_total) is LPStatus.UNBOUNDED:
            return LPResult(LPStatus.UNBOUNDED)

        values = [Fraction(0)] * n_cols
        for i, b in enumerate(basis):
            values[b] = tableau[i][-1]
        point = {
            name: values[2 * j] - values[2 * j + 1]
            for j, name in enumerate(self.var_names)
        }
        return LPResult(LPStatus.OPTIMAL, evaluate(self.objective, point), point)

    @staticmethod
    def _objective_value(
        tableau: list[list[Fraction]], basis: list[int], costs: list[Fraction]
    ) -> Fraction:
        return sum(
            (costs[b] * tableau[i][-1] for i, b in enumerate(basis)), Fraction(0)
        )

    def _optimize(
        self,
        tableau: list[list[Fraction]],
        basis: list[int],
        costs: list[Fraction],
        n_eligible: int,
    ) -> LPStatus:
        n_rows = len(tableau)
        for _ in range(10_000):
            entering = None
            for j in range(n_eligible):
                if j in basis:
                    continue
                reduced = costs[j]
                for i in range(n_rows):
                    reduced -= costs[basis[i]] * tableau[i][j]
                if reduced < 0:
                    entering = j  # Bland's rule: first eligible index.
                    break
            if entering is None:
                return LPStatus.OPTIMAL
            leaving = None
            best_ratio: Fraction | None = None
            for i in range(n_rows):
                coeff = tableau[i][entering]
                if coeff > 0:
                    ratio = tableau[i][-1] / coeff
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving is None:
                return LPStatus.UNBOUNDED
            self._pivot(tableau, basis, leaving, entering)
        raise RuntimeError("simplex did not converge (cycling suspected)")

    @staticmethod
    def _pivot(
        tableau: list[list[Fraction]], basis: list[int], row: int, col: int
    ) -> None:
        pivot_value = tableau[row][col]
        tableau[row] = [v / pivot_value for v in tableau[row]]
        for i in range(len(tableau)):
            if i != row and tableau[i][col] != 0:
                factor = tableau[i][col]
                tableau[i] = [a - factor * b for a, b in zip(tableau[i], tableau[row])]
        basis[row] = col


# -- convex integer sets ---------------------------------------------------------------


class BasicSet:
    """Integer points of a convex polyhedron over named dimensions."""

    def __init__(
        self, dims: Sequence[str], constraints: Iterable[Constraint] = ()
    ) -> None:
        self.dims = tuple(dims)
        self.constraints: list[Constraint] = []
        for constraint in constraints:
            unknown = variables(constraint.expr) - set(self.dims)
            if unknown:
                raise ValueError(
                    f"constraint {constraint} uses unknown dims {sorted(unknown)}"
                )
            if not is_trivially_true(constraint):
                self.constraints.append(constraint)

    @staticmethod
    def universe(dims: Sequence[str]) -> BasicSet:
        return BasicSet(dims, [])

    @staticmethod
    def empty(dims: Sequence[str]) -> BasicSet:
        return BasicSet(dims, [Constraint.ge(LinearExpr.const(-1), 0)])

    @staticmethod
    def from_bounds(
        dims: Sequence[str], bounds: Mapping[str, tuple[int, int]]
    ) -> BasicSet:
        """A box ``lower <= dim <= upper`` for each entry of ``bounds``."""
        constraints = []
        for dim, (lower, upper) in bounds.items():
            constraints.append(Constraint.ge(LinearExpr.var(dim), lower))
            constraints.append(Constraint.le(LinearExpr.var(dim), upper))
        return BasicSet(dims, constraints)

    @staticmethod
    def box(
        dims: Sequence[str], lowers: Sequence[int], uppers: Sequence[int]
    ) -> BasicSet:
        """A box with per-dimension inclusive bounds given in dimension order."""
        if len(lowers) != len(dims) or len(uppers) != len(dims):
            raise ValueError("bounds must match the dimensionality")
        return BasicSet.from_bounds(
            dims, {d: (lowers[i], uppers[i]) for i, d in enumerate(dims)}
        )

    def contains(self, point: Sequence[int]) -> bool:
        env = dict(zip(self.dims, point, strict=True))
        return all(satisfied(c, env) for c in self.constraints)

    __contains__ = contains

    def intersect(self, other: BasicSet) -> BasicSet:
        if self.dims != other.dims:
            raise ValueError("cannot intersect sets over different dimensions")
        return BasicSet(self.dims, [*self.constraints, *other.constraints])

    def gist(self) -> BasicSet:
        """Drop constraints implied by the others."""
        kept: list[Constraint] = []
        for i, candidate in enumerate(self.constraints):
            others = [c for j, c in enumerate(self.constraints) if j != i]
            # Redundant if the set without it cannot violate it.
            if any(
                not BasicSet(self.dims, [*others, piece]).is_rationally_empty()
                for piece in negated(candidate)
            ):
                kept.append(candidate)
        return BasicSet(self.dims, kept)

    def is_rationally_empty(self) -> bool:
        result = lp_minimize(LinearExpr.const(0), self.constraints, self.dims)
        return result.status is LPStatus.INFEASIBLE

    def is_empty(self) -> bool:
        """Whether the set contains no integer point (bounded sets only)."""
        return self.is_rationally_empty() or next(self.points(), None) is None

    def dim_min(self, dim: str) -> Fraction | None:
        result = lp_minimize(LinearExpr.var(dim), self.constraints, self.dims)
        return result.value if result.status is LPStatus.OPTIMAL else None

    def dim_max(self, dim: str) -> Fraction | None:
        result = lp_maximize(LinearExpr.var(dim), self.constraints, self.dims)
        return result.value if result.status is LPStatus.OPTIMAL else None

    def bounding_box(self) -> list[tuple[int, int]] | None:
        """Integer bounding box, or None when empty or unbounded."""
        if self.is_rationally_empty():
            return None
        box = []
        for dim in self.dims:
            lower, upper = self.dim_min(dim), self.dim_max(dim)
            if lower is None or upper is None:
                return None
            box.append((math.ceil(lower), math.floor(upper)))
        return box

    def points(self) -> Iterator[tuple[int, ...]]:
        """The integer points of a bounded set, in lexicographic order.

        Walks the dimensions in order; at every prefix, two LPs bound the
        next coordinate and one more prunes a value whose remaining system is
        rationally infeasible.
        """
        if self.is_rationally_empty():
            return iter(())
        return self._enumerate([], self.constraints)

    def _enumerate(
        self, prefix: list[int], constraints: list[Constraint]
    ) -> Iterator[tuple[int, ...]]:
        depth = len(prefix)
        if depth == len(self.dims):
            yield tuple(prefix)
            return
        dim = self.dims[depth]
        remaining = self.dims[depth:]
        lower = lp_minimize(LinearExpr.var(dim), constraints, remaining)
        upper = lp_maximize(LinearExpr.var(dim), constraints, remaining)
        if lower.status is not LPStatus.OPTIMAL or upper.status is not LPStatus.OPTIMAL:
            raise ValueError(f"cannot enumerate unbounded or empty dimension {dim!r}")
        for value in range(math.ceil(lower.value), math.floor(upper.value) + 1):
            fixed = [
                substitute_constraint(c, {dim: LinearExpr.const(value)})
                for c in constraints
            ]
            if any(is_trivially_false(c) for c in fixed):
                continue
            fixed = [c for c in fixed if not is_trivially_true(c)]
            if depth + 1 < len(self.dims) and not lp_feasible(
                fixed, self.dims[depth + 1 :]
            ):
                continue
            yield from self._enumerate([*prefix, value], fixed)

    def count(self) -> int:
        return sum(1 for _ in self.points())

    def project_out(self, dims: Iterable[str]) -> BasicSet:
        """Existentially project out ``dims`` (rational Fourier–Motzkin)."""
        dropped = list(dims)
        constraints = list(self.constraints)
        for dim in dropped:
            constraints = _fourier_motzkin_step(constraints, dim)
        return BasicSet([d for d in self.dims if d not in dropped], constraints)

    def project_onto(self, dims: Sequence[str]) -> BasicSet:
        projected = self.project_out([d for d in self.dims if d not in dims])
        return BasicSet([d for d in dims if d in projected.dims], projected.constraints)

    def translate(self, offsets: Mapping[str, int]) -> BasicSet:
        bindings = {dim: LinearExpr.var(dim) - shift for dim, shift in offsets.items()}
        return BasicSet(
            self.dims, [substitute_constraint(c, bindings) for c in self.constraints]
        )

    def __str__(self) -> str:
        text = " and ".join(str(c) for c in self.constraints) or "true"
        return f"{{ [{', '.join(self.dims)}] : {text} }}"


def _fourier_motzkin_step(constraints: list[Constraint], dim: str) -> list[Constraint]:
    """Eliminate ``dim`` from a conjunction of constraints."""
    lower: list[tuple[Fraction, LinearExpr]] = []  # coeff > 0
    upper: list[tuple[Fraction, LinearExpr]] = []  # coeff < 0
    result: list[Constraint] = []
    for constraint in constraints:
        coeff = coefficient(constraint.expr, dim)
        if coeff == 0:
            result.append(constraint)
        elif constraint.is_equality:
            # dim = -(rest)/coeff: substitute it away everywhere else.
            rest = constraint.expr - LinearExpr.var(dim, coeff)
            replacement = rest * (Fraction(-1) / coeff)
            substituted = [
                substitute_constraint(c, {dim: replacement})
                for c in constraints
                if c is not constraint
            ]
            return [c for c in substituted if not is_trivially_true(c)]
        elif coeff > 0:
            lower.append((coeff, constraint.expr))
        else:
            upper.append((coeff, constraint.expr))
    for (coeff_low, expr_low), (coeff_up, expr_up) in itertools.product(lower, upper):
        combined = Constraint(expr_low * (-coeff_up) + expr_up * coeff_low)
        if not is_trivially_true(combined):
            result.append(normalized(combined))
    return result


# -- the Section 3.2 domains and the Section 3.3.2 cone ------------------------------


def statement_domain(program, statement) -> BasicSet:
    """``{ [t, s..] : 0 <= t < T, lower_margin <= s <= size - 1 - upper_margin }``."""
    t = LinearExpr.var("t")
    constraints = [Constraint.ge(t, 0), Constraint.le(t, program.time_steps - 1)]
    for axis, dim in enumerate(program.space_dims):
        lower = statement.lower_margin[axis]
        upper = program.sizes[axis] - 1 - statement.upper_margin[axis]
        constraints.append(Constraint.ge(LinearExpr.var(dim), lower))
        constraints.append(Constraint.le(LinearExpr.var(dim), upper))
    return BasicSet(("t", *program.space_dims), constraints)


def instances(program) -> list[tuple[int, ...]]:
    """Canonical rows ``(k*t + i, s0, .., sn)``, statement by statement."""
    k = program.num_statements
    return [
        (k * t + index, *space)
        for index, statement in enumerate(program.statements)
        for t, *space in statement_domain(program, statement).points()
    ]


def cone_lp(distances: Iterable[Sequence[int]], dim_index: int = 0) -> DependenceCone:
    """The dependence cone by the LP of the paper.

    Minimise ``δ0`` subject to ``δ0 >= 0`` and ``δ0·Δt - Δs >= 0`` for every
    distance vector, and ``δ1`` symmetrically with ``δ1·Δt + Δs >= 0``.
    """
    distance_list = [tuple(d) for d in distances]
    if not distance_list:
        raise ValueError("cannot build a dependence cone from no dependences")
    slopes = []
    for sign in (-1, 1):
        slope = LinearExpr.var("delta")
        constraints = [Constraint.ge(slope, 0)] + [
            Constraint.ge(slope * d[0] + sign * d[1 + dim_index], 0)
            for d in distance_list
        ]
        result = lp_minimize(slope, constraints, ["delta"])
        if result.status is not LPStatus.OPTIMAL:
            raise ValueError("slope LP is infeasible or unbounded; invalid dependences")
        slopes.append(result.value)
    return DependenceCone(*slopes)

"""Typed findings produced by the static verifier (:mod:`repro.verify`).

Two families of results:

* :class:`RaceFinding` / :class:`ScheduleVerdict` — output of the symbolic
  schedule race detector (:mod:`repro.verify.symbolic`).  A race names the
  dependence it violates, the **ordering level** at which the schedule fails
  to order source before sink, and a concrete counterexample instance pair
  (valid on every sufficiently large grid — the detector reasons over
  symbolic problem sizes).
* :class:`LintFinding` / :class:`LintReport` — output of the generated-CUDA
  static linter (:mod:`repro.verify.lint`), each finding carrying a rule
  name, a severity and a source span into the generated text.

Both are frozen records (:mod:`repro._record`) so they can ride inside the
cached ``verify`` artifact (:class:`repro.api.artifacts.VerificationReport`).
"""

from __future__ import annotations

from repro._record import dataclass, field
from typing import Any

#: Ordering levels a race can violate, outermost first.  ``coverage`` is not
#: an ordering level proper: it flags a point of the ``(l, s0)`` plane that
#: the phase partition fails to claim exactly once (Section 3.3.2), which
#: voids the ordering argument for every dependence through that point.
ORDERING_LEVELS: tuple[str, ...] = (
    "time_tile",   # sequential T loop on the host
    "phase",       # sequential kernel launches within one T
    "block",       # parallel S0 tiles of one launch (no ordering at all)
    "wavefront",   # sequential wavefronts (classical / diamond schedules)
    "intra_tile",  # sequential inner tile loops S1..Sn inside one block
    "barrier",     # barrier-stepped local time inside one tile
    "coverage",    # phase partition does not cover the (l, s0) plane
)


class VerificationError(ValueError):
    """The verifier cannot analyse this schedule (unsupported shape)."""


@dataclass(frozen=True)
class Instance:
    """A concrete statement instance used as a counterexample endpoint."""

    statement: str
    t: int
    point: tuple[int, ...]
    #: Named schedule coordinates, e.g. ``(("T", 2), ("phase", 0), ("S0", 4))``.
    schedule: tuple[tuple[str, int], ...] = ()

    def summary(self) -> dict[str, Any]:
        return {
            "statement": self.statement,
            "t": self.t,
            "point": list(self.point),
            "schedule": dict(self.schedule),
        }

    def __str__(self) -> str:
        coords = ", ".join(f"{name}={value}" for name, value in self.schedule)
        return f"{self.statement}(t={self.t}, {tuple(self.point)})[{coords}]"


@dataclass(frozen=True)
class RaceFinding:
    """One dependence the schedule fails to order, with a witness pair."""

    strategy: str
    dependence: str
    level: str
    message: str
    source: Instance | None = None
    sink: Instance | None = None

    def summary(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "strategy": self.strategy,
            "dependence": self.dependence,
            "level": self.level,
            "message": self.message,
        }
        if self.source is not None:
            data["source"] = self.source.summary()
        if self.sink is not None:
            data["sink"] = self.sink.summary()
        return data


@dataclass(frozen=True)
class ScheduleVerdict:
    """Outcome of symbolically checking one schedule against all dependences."""

    strategy: str
    dependences_checked: int
    classes_checked: int
    races: tuple[RaceFinding, ...] = ()
    coverage_ok: bool = True
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.races and self.coverage_ok

    def summary(self) -> dict[str, Any]:
        return {
            "strategy": self.strategy,
            "ok": self.ok,
            "dependences_checked": self.dependences_checked,
            "classes_checked": self.classes_checked,
            "coverage_ok": self.coverage_ok,
            "races": [race.summary() for race in self.races],
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class LintFinding:
    """One static finding in generated CUDA, with a source span."""

    rule: str
    severity: str  # "error" | "warning"
    message: str
    line: int      # 1-based line in the generated source
    col: int = 0
    end_col: int = 0
    snippet: str = ""

    def summary(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "line": self.line,
            "span": [self.line, self.col, self.end_col],
            "snippet": self.snippet,
        }

    def __str__(self) -> str:
        return f"{self.severity}[{self.rule}] line {self.line}: {self.message}"


@dataclass(frozen=True)
class LintReport:
    """All linter findings over one generated-CUDA translation unit."""

    findings: tuple[LintFinding, ...] = ()
    lines_scanned: int = 0
    kernels: tuple[str, ...] = ()
    notes: tuple[str, ...] = field(default=())

    @property
    def errors(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings do not fail a build)."""
        return not self.errors

    def summary(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "lines_scanned": self.lines_scanned,
            "kernels": list(self.kernels),
            "findings": [finding.summary() for finding in self.findings],
            "notes": list(self.notes),
        }

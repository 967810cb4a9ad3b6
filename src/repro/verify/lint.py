"""Static linter for the generated CUDA (:mod:`repro.codegen.cuda`).

A brace-tracking scanner with a small per-kernel dataflow: it seeds
``threadIdx.*`` as *divergent* (and ``threadIdx.x`` with warp stride 1),
propagates divergence and thread strides through simple integer
definitions, and checks four rule families against the declared
``__shared__`` arrays and global pointer parameters:

``sync-divergence`` (error)
    ``__syncthreads()`` under control flow whose condition (or loop
    bounds) provably diverges within a block — a deadlock on real
    hardware, since barriers must be reached by every thread.
``shared-bank-conflict`` (warning; error at replay >= 8)
    A warp accessing a ``__shared__`` array with element stride ``s``
    replays the access ``gcd(s, 32)`` times (that many of its threads
    share each of the 32 banks it touches); column-major walks over
    row-major tiles are the classic instance.
``shared-oob`` (error)
    A subscript that is a literal, or a loop variable with provable
    non-negative start and literal exclusive bound, reaching outside the
    declared extent.
``global-uncoalesced`` (warning)
    Thread-varying global index with stride > 1 element, or a
    thread-varying subscript in a non-innermost position — each warp
    touches more DRAM transactions than necessary
    (cf. :class:`repro.gpu.memory.CoalescingModel`).

The linter only reports what it can *prove* from the text: indices built
from unknown variables are skipped, never guessed — zero false positives
on library codegen is part of the acceptance bar, teeth are demonstrated
on fixtures.  Accesses whose subscript count differs from the declared
rank (the illustrative partial indexing the boundary code emits) are
likewise skipped.

Each kernel is read once: one pass over its ``;``, ``{`` and ``}`` (outside
parentheses) cuts it into statements and block headers.  What depends on
a text alone (a header's kind, a statement's accesses, an expression's
operands) is parsed once per lint; only the dataflow runs at each visit.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from typing import Any

from repro._record import dataclass, field
from repro.verify.report import LintFinding, LintReport

_WARP = 32

#: The scalar types a declaration ``type name = value`` may start with.
_TYPES = frozenset({"int", "unsigned", "long", "short", "size_t", "float", "double"})

#: A comment; an unterminated block comment runs to the end of the text.
_COMMENT_RE = re.compile(
    r"//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/|/\*.*", re.DOTALL
)
#: An array access: a name directly followed by its first subscript.
_ACCESS_RE = re.compile(r"\b(\w+)\[")
_SHARED_RE = re.compile(r"__shared__\s+\w+\s+(\w+)((?:\[\d+\])+)")
_KERNEL_RE = re.compile(r"__global__\s+\w+\s+(\w+)\s*\(([^)]*)\)")
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[xyz])?|\d+")
#: What may end a statement or open or close a block, all as ``;``.
_BOUNDARIES = str.maketrans("{}", ";;")

#: For each separator set ``_split_top`` splits at: brackets as
#: parentheses, and every separator as the first.
_SPLIT_TABLES = {
    separators: str.maketrans(
        {"[": "(", "]": ")", **{char: separators[0] for char in separators[1:]}}
    )
    for separators in ("+-", "*", ",", ";")
}


class _Context:
    """An open block; ``at`` is where its header starts in the scanned text."""

    __slots__ = ("kind", "divergent", "at")

    def __init__(self, kind: str, divergent: bool, at: int):
        self.kind = kind  # "kernel" | "function" | "if" | "else" | "for" | "block"
        self.divergent, self.at = divergent, at


@dataclass
class _KernelState:
    name: str | None = None
    is_kernel: bool = False
    shared: dict[str, tuple[int, ...]] = field(default_factory=dict)
    pointers: set[str] = field(default_factory=set)
    divergent: set[str] = field(default_factory=set)
    uniform: set[str] = field(default_factory=set)
    strides: dict[str, int] = field(default_factory=dict)
    #: loop variables with a provable range [0, bound).
    bounds: dict[str, int] = field(default_factory=dict)
    #: ``_Linter._analyse`` results under the current ``strides`` and ``uniform``.
    analysed: dict[str, tuple[int | None, int | None]] = field(default_factory=dict)

    @classmethod
    def fresh(cls, name: str | None, is_kernel: bool) -> "_KernelState":
        state = cls(name=name, is_kernel=is_kernel)
        state.divergent |= {"threadIdx.x", "threadIdx.y", "threadIdx.z"}
        state.strides.update({"threadIdx.x": 1, "threadIdx.y": 0, "threadIdx.z": 0})
        state.uniform |= {
            "blockIdx.x", "blockIdx.y", "blockIdx.z",
            "blockDim.x", "blockDim.y", "blockDim.z",
            "gridDim.x", "gridDim.y", "gridDim.z",
        }
        return state


def _blank(comment: re.Match[str]) -> str:
    """Spaces in place of a comment, keeping its newlines."""
    text = comment.group()
    if "\n" not in text:
        return " " * len(text)
    return "\n".join(" " * len(line) for line in text.split("\n"))


def _strip_directives(text: str) -> str:
    """Empty every preprocessor line (it would bleed into the next statement)."""
    pieces: list[str] = []
    begin = 0
    at = text.find("#")
    while at >= 0:
        start = text.rfind("\n", 0, at) + 1
        end = text.find("\n", at)
        end = len(text) if end < 0 else end
        if not text[start:at].strip():
            pieces.append(text[begin:start])
            begin = end
        at = text.find("#", end)
    pieces.append(text[begin:])
    return "".join(pieces)


def _is_word(text: str) -> bool:
    """``text`` matches ``\\w+``."""
    return text.replace("_", "a").isalnum()


def _split_top(text: str, separators: str) -> list[str]:
    """Split on any of ``separators`` at bracket depth zero.

    Each part after the first starts with its separator.  Only separators
    are visited, the depth at each counted since the one before.
    """
    probe = text.translate(_SPLIT_TABLES[separators])
    mark = separators[0]
    parts: list[str] = []
    begin = counted = depth = 0
    at = probe.find(mark)
    while at >= 0:
        depth += probe.count("(", counted, at) - probe.count(")", counted, at)
        counted = at
        if not depth:
            parts.append(text[begin:at])
            begin = at
        at = probe.find(mark, at + 1)
    parts.append(text[begin:])
    return parts


def _token_set(text: str) -> frozenset[str]:
    """The names and integer literals ``text`` mentions."""
    return frozenset(_TOKEN_RE.findall(text))


#: One ``name[...]`` access of a statement: the name, its column, its
#: stripped subscripts, and the outer and innermost coordinates a global
#: access is judged by (``None`` when it has none).
_Access = tuple[str, int, list[str], "tuple[list[str], str] | None"]


def _subscripts(text: str, start: int) -> list[str]:
    """Consecutive ``[expr]`` groups beginning at ``text[start]``."""
    groups: list[str] = []
    while text.startswith("[", start):
        # The first ``]`` that closes every ``[`` since ``start``.
        close = text.find("]", start)
        while close >= 0 and text.count("[", start, close) - text.count(
            "]", start, close
        ) != 1:
            close = text.find("]", close + 1)
        if close < 0:
            break
        groups.append(text[start + 1:close])
        start = close + 1
    return groups


def _coordinates(subscripts: list[str]) -> tuple[list[str], str] | None:
    """The outer and innermost coordinates of a global access; an address
    helper ``f(a, b, c)`` has its arguments as coordinates, ``c`` innermost."""
    if not subscripts:
        return None
    head, paren, rest = subscripts[-1].partition("(")
    if not (paren and rest.endswith(")") and _is_word(head.rstrip())):
        return subscripts[:-1], subscripts[-1]
    parts = (a.strip().lstrip(",").strip() for a in _split_top(rest[:-1], ","))
    args = [a for a in parts if a]
    return (args[:-1], args[-1]) if args else None


def _parse_accesses(stmt: str) -> list[_Access]:
    accesses: list[_Access] = []
    for match in _ACCESS_RE.finditer(stmt):
        subscripts = [g.strip() for g in _subscripts(stmt, match.end() - 1)]
        accesses.append(
            (match.group(1), match.start(), subscripts, _coordinates(subscripts))
        )
    return accesses


def _assignment(text: str) -> tuple[str, str] | None:
    """``(name, value)`` of a stripped ``name = value``, else ``None``."""
    name, equals, value = text.partition("=")
    name, value = name.rstrip(), value.lstrip()
    if equals and value and _is_word(name):
        return name, value
    return None


def _definition(text: str) -> tuple[str, str] | None:
    """``(name, value)`` of a stripped ``[type] name = value``, else ``None``."""
    words = text.split(None, 1)
    if len(words) == 2 and words[0] in _TYPES:
        declared = _assignment(words[1])
        if declared is not None:
            return declared
    return _assignment(text)


def _parse_loop(inside: str) -> tuple[str, str, int | None] | None:
    """``(counter, start, bound)`` of a ``for`` header's inside; the bound of
    ``counter < literal`` counts only from a literal or thread-index start."""
    parts = [p.lstrip(";").strip() for p in _split_top(inside, ";")]
    init = _definition(parts[0]) if len(parts) >= 2 else None
    if init is None:
        return None
    var, start = init[0], init[1].strip()
    head, less, bound = parts[1].partition("<")
    bound = bound.lstrip()
    if (
        less and head.rstrip() == var and bound.isdecimal()
        and (start.isdecimal() or start.startswith("threadIdx"))
    ):
        return var, start, int(bound)
    return var, start, None


def _parse_header(header: str) -> tuple[str, str | None, Any]:
    """``(kind, condition, detail)`` of a stripped block header: the condition
    decides divergence (``if``, ``for``, ``while`` as a ``for``); the detail is
    a kernel's name and ``(parameter, is_pointer)`` pairs, or a loop's counter."""
    kernel = _KERNEL_RE.search(header)
    if kernel is not None:
        params = []
        for param in kernel.group(2).split(","):
            pieces = param.replace("*", " * ").split()
            if pieces:
                params.append((pieces[-1], "*" in pieces))
        return "kernel", None, (kernel.group(1), params)
    if "=" not in header:
        # A function definition: ``type name(`` with words and spaces only
        # before its first parenthesis.
        head, paren, _ = header.partition("(")
        words = head.split()
        if paren and len(words) >= 2 and all(map(_is_word, words)):
            return "function", None, None
    # ``[} else] if (``: a chained ``else if`` is an ``if``.
    rest = (header[1:] if header.startswith("}") else header).lstrip()
    rest = rest[4:].lstrip() if rest[:4] == "else" and rest[4:5].isspace() else header
    if rest.startswith("if") and rest[2:].lstrip().startswith("("):
        return "if", rest[2:].lstrip()[1:].rstrip(") {"), None
    if header.startswith("else"):
        return "else", None, None
    rest = header[3:].lstrip()
    if header.startswith("for") and rest.startswith("("):
        inside = rest[1:].rstrip(") {")
        return "for", inside, _parse_loop(inside)
    if header.startswith("while"):
        return "for", header, None
    return "block", None, None


class _Linter:
    def __init__(self, warp_size: int):
        self.warp = warp_size
        self.findings: list[LintFinding] = []
        self.kernels: list[str] = []
        self.notes: list[str] = []
        self.text = ""
        self.state = _KernelState.fresh(None, False)
        self.stack: list[_Context] = []
        self.last_popped: _Context | None = None
        self._seen: set[tuple[str, int, int]] = set()
        self._parses: dict[tuple[Any, ...], Any] = {}

    def _parse(self, parse: Callable[..., Any], *args: str) -> Any:
        """``parse(*args)``, computed once per lint: a parse reads text only."""
        key = (parse, *args)
        if key not in self._parses:
            self._parses[key] = parse(*args)
        return self._parses[key]

    def _line(self, at: int) -> int:
        """The line of offset ``at`` of the scanned text."""
        return self.text.count("\n", 0, at) + 1

    def report(
        self, rule: str, severity: str, message: str,
        at: int, col: int, width: int, snippet: str,
    ) -> None:
        """Record a finding in the statement starting at offset ``at``."""
        line = self._line(at)
        key = (rule, line, col)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            LintFinding(
                rule=rule, severity=severity, message=message,
                line=line, col=col, end_col=col + width,
                snippet=snippet.strip()[:120],
            )
        )

    # -- the scan ---------------------------------------------------------------------

    def scan(self, text: str) -> None:
        """Visit every statement and block boundary of comment-free ``text``."""
        self.text = text
        start = 0    # where the pending statement or header begins
        counted = 0  # parentheses are counted up to here
        depth = 0
        first = 0    # where the last non-blank statement or header starts
        probe = text.translate(_BOUNDARIES)
        at = -1
        while (at := probe.find(";", at + 1)) >= 0:
            depth += text.count("(", counted, at) - text.count(")", counted, at)
            counted = at
            if depth:
                continue
            body = text[start:at].lstrip()
            if body:
                first = at - len(body)
            start = at + 1
            boundary = text[at]
            if boundary == ";":
                if body:
                    self.statement(body.replace("\n", " ") + ";", first)
            elif boundary == "{":
                self.stack.append(self.open(body.replace("\n", " ").rstrip(), first))
            elif self.stack:
                self.last_popped = self.stack.pop()
                if self.last_popped.kind in ("kernel", "function"):
                    self.state = _KernelState.fresh(None, False)

    def open(self, header: str, at: int) -> _Context:
        """The context a block header opens."""
        kind, condition, detail = self._parse(_parse_header, header)
        if kind == "kernel":
            name, params = detail
            self.state = state = _KernelState.fresh(name, True)
            self.kernels.append(name)
            for param, is_pointer in params:
                if is_pointer:
                    state.pointers.add(param)
                state.uniform.add(param)
        elif kind == "function":
            self.state = _KernelState.fresh(None, False)
        if kind == "else":
            popped = self.last_popped
            divergent = bool(popped and popped.kind == "if" and popped.divergent)
        else:
            divergent = condition is not None and self._diverges(condition)
        if kind == "for" and detail is not None:
            var, start, bound = detail
            self._define(var, start)
            if bound is not None:
                self.state.bounds[var] = bound
        return _Context(kind, divergent, at)

    def _diverges(self, text: str) -> bool:
        return not self.state.divergent.isdisjoint(self._parse(_token_set, text))

    def _uniform(self, tokens: frozenset[str]) -> bool:
        """Every name among ``tokens`` is uniform (integer literals always are)."""
        return all(map(str.isdecimal, tokens.difference(self.state.uniform)))

    # -- statement handling ---------------------------------------------------------

    def statement(self, stripped: str, at: int) -> None:
        if stripped.startswith("#"):
            return
        state = self.state
        shared = _SHARED_RE.search(stripped) if "__shared__" in stripped else None
        if shared is not None:
            state.shared[shared.group(1)] = tuple(
                int(d) for d in shared.group(2)[1:-1].split("][")
            )
            return
        if "__syncthreads" in stripped and state.is_kernel:
            divergent = [ctx for ctx in self.stack if ctx.divergent]
            if divergent:
                where = divergent[-1]
                self.report(
                    "sync-divergence", "error",
                    "__syncthreads() under divergent control flow (the "
                    f"{where.kind} opened at line {self._line(where.at)} has a "
                    "thread-dependent condition): threads that skip the "
                    "barrier deadlock the block",
                    at, 0, len(stripped), stripped,
                )
        if state.is_kernel and "[" in stripped:
            self._scan_accesses(stripped, at)
        target = _definition(stripped.rstrip(";").strip())
        if target is not None:
            self._define(*target)

    def _define(self, name: str, expr: str) -> None:
        state = self.state
        stride, value = self._analyse(expr)
        tokens = self._parse(_token_set, expr)
        divergent = value is None and not state.divergent.isdisjoint(tokens)
        before = (name in state.uniform, state.strides.get(name))
        state.divergent.discard(name)
        state.uniform.discard(name)
        state.strides.pop(name, None)
        state.bounds.pop(name, None)
        if divergent:
            state.divergent.add(name)
        if tokens and self._uniform(tokens):
            state.uniform.add(name)
        if stride is not None:
            state.strides[name] = stride
        if (name in state.uniform, state.strides.get(name)) != before:
            state.analysed.clear()  # what the analyses read of ``name`` changed

    # -- expression analysis --------------------------------------------------------

    def _analyse(self, expr: str) -> tuple[int | None, int | None]:
        """``(thread stride, constant value)`` of an integer expression.

        The stride is along ``threadIdx.x``; ``None`` means unknown, and the
        value is known only for an integer literal.
        """
        analysed = self.state.analysed
        if expr not in analysed:
            analysed[expr] = self._additive(expr.strip())
        return analysed[expr]

    def _additive(self, expr: str) -> tuple[int | None, int | None]:
        if not expr:
            return 0, None
        if expr.isdecimal():
            return 0, int(expr)
        # Additive decomposition at depth 0; each term multiplicative.
        stride = 0
        for part in self._parse(_split_top, expr, "+-"):
            term = part.lstrip("+-").strip()
            if not term:
                continue
            term_stride = self._term_stride(term)
            if term_stride is None:
                return None, None
            stride += -term_stride if part.startswith("-") else term_stride
        return stride, None

    def _term_stride(self, term: str) -> int | None:
        """Thread stride of one multiplicative term, or None when unknown."""
        state = self.state
        if "/" in term or "%" in term:
            return 0 if self._uniform(self._parse(_token_set, term)) else None
        constant = 1
        varying: int | None = None
        unquantified = False  # uniform factor of unknown magnitude
        for factor in self._parse(_split_top, term, "*"):
            factor = factor.lstrip("*").strip()
            if not factor:
                continue
            if factor.startswith("(") and factor.endswith(")"):
                inner_stride, inner_value = self._analyse(factor[1:-1])
                if inner_stride is None:
                    return None
                if inner_stride == 0:
                    if inner_value is not None:
                        constant *= inner_value
                    else:
                        unquantified = True
                elif varying is not None:
                    return None
                else:
                    varying = inner_stride
            elif factor.isdecimal():
                constant *= int(factor)
            elif state.strides.get(factor):
                if varying is not None:
                    return None
                varying = state.strides[factor]
            elif factor in state.uniform or factor in state.strides:
                unquantified = True
            else:
                return None
        if varying is None:
            return 0
        if unquantified:
            return None
        return varying * constant

    # -- access rules ---------------------------------------------------------------

    def _scan_accesses(self, stmt: str, at: int) -> None:
        state = self.state
        for name, col, subscripts, coordinates in self._parse(_parse_accesses, stmt):
            extents = state.shared.get(name)
            if extents is not None:
                self._check_shared(name, extents, subscripts, stmt, at, col)
            if coordinates is not None and name in state.pointers:
                self._check_global(name, *coordinates, stmt, at, col)

    def _check_shared(
        self, name: str, extents: tuple[int, ...], subscripts: list[str],
        stmt: str, at: int, col: int,
    ) -> None:
        if len(subscripts) != len(extents):
            return  # partial indexing: element address is not determined
        analysed = [self._analyse(expr) for expr in subscripts]
        # Out-of-bounds: literals and bounded loop variables.
        for axis, (expr, extent, (_, value)) in enumerate(
            zip(subscripts, extents, analysed)
        ):
            peak: int | None = None
            if value is not None:
                peak = value
            elif expr in self.state.bounds:
                peak = self.state.bounds[expr] - 1
            if peak is not None and peak >= extent:
                self.report(
                    "shared-oob", "error",
                    f"index {expr} reaches {peak} on axis {axis} of "
                    f"{name}[{']['.join(str(e) for e in extents)}] "
                    f"(extent {extent}): statically out of bounds",
                    at, col, len(name), stmt,
                )
        # Bank conflicts: element stride of a warp across the access.
        stride = 0
        for axis, (axis_stride, _) in enumerate(analysed):
            if axis_stride is None:
                return  # unprovable — stay silent
            stride += axis_stride * math.prod(extents[axis + 1:])
        if stride == 0:
            return
        replay = math.gcd(abs(stride), self.warp)
        if replay > 1:
            severity = "error" if replay >= 8 else "warning"
            self.report(
                "shared-bank-conflict", severity,
                f"{replay}-way shared-memory bank conflict: a warp accesses "
                f"{name} with element stride {stride} "
                f"(gcd({abs(stride)}, {self.warp}) = {replay} replays)",
                at, col, len(name), stmt,
            )

    def _check_global(
        self, name: str, outer: list[str], inner: str, stmt: str, at: int, col: int
    ) -> None:
        for position, expr in enumerate(outer):
            stride, _ = self._analyse(expr)
            if stride is not None and stride != 0:
                self.report(
                    "global-uncoalesced", "warning",
                    f"thread-varying index {expr!r} in non-innermost "
                    f"position {position} of access to {name}: warps touch "
                    "one DRAM transaction per thread",
                    at, col, len(name), stmt,
                )
        stride, _ = self._analyse(inner)
        if stride is not None and abs(stride) > 1:
            self.report(
                "global-uncoalesced", "warning",
                f"innermost index of {name} has thread stride "
                f"{stride} elements: accesses of one warp span "
                f"{abs(stride)}x more DRAM transactions than a unit "
                "stride",
                at, col, len(name), stmt,
            )


def lint_cuda(
    source: str,
    plan: Any | None = None,
    device: Any | None = None,
) -> LintReport:
    """Lint one generated-CUDA translation unit.

    ``plan`` (a :class:`repro.codegen.shared_mem.SharedMemoryPlan`) and
    ``device`` (a :class:`repro.gpu.device.GPUDevice`) enable the
    cross-checks that need pipeline context — shared-memory capacity
    against the target SM, and the warp size used by the bank model.
    Findings are ordered by severity (errors first), line, column and rule.
    """
    warp = getattr(device, "warp_size", _WARP) or _WARP
    linter = _Linter(warp)
    if plan is not None and device is not None:
        budget = getattr(device, "shared_memory_per_sm", None)
        used = getattr(plan, "shared_bytes_per_block", 0)
        if budget and used > budget:
            linter.report(
                "shared-capacity", "error",
                f"declared shared memory ({used} B/block) exceeds the "
                f"{device.name} SM capacity ({budget} B)",
                0, 0, 0, "",
            )

    text = _strip_directives(_COMMENT_RE.sub(_blank, source))
    linter.scan(text)
    return LintReport(
        findings=tuple(
            sorted(
                linter.findings,
                key=lambda f: (f.severity, f.line, f.col, f.rule),
            )
        ),
        lines_scanned=text.count("\n") + 1,
        kernels=tuple(linter.kernels),
        notes=tuple(linter.notes),
    )


__all__ = ["lint_cuda"]

"""Brute-force oracle for the generated-CUDA linter: one character at a time.

``lint_cuda`` here is :mod:`repro.verify.lint` as it was before the scanner
tokenised each kernel once: it walks the comment-stripped text character by
character, splits every expression again at each level of its analysis and
compiles one access pattern per array name.  Apart from the order of its
findings, which came out in ``set`` order for accesses to different
pointers on one line, its report must equal the rewritten linter's field
for field.
"""

from __future__ import annotations

import math
import re
from typing import Any

from repro._record import dataclass, field
from repro.verify.report import LintFinding, LintReport

_WARP = 32

_DECL_RE = re.compile(
    r"^(?:int|unsigned|long|short|size_t|float|double)\s+(\w+)\s*=\s*(.+)$"
)
_ASSIGN_RE = re.compile(r"^(\w+)\s*=\s*(.+)$")
_SHARED_RE = re.compile(r"__shared__\s+\w+\s+(\w+)((?:\[\d+\])+)")
_KERNEL_RE = re.compile(r"__global__\s+\w+\s+(\w+)\s*\(([^)]*)\)")
_FOR_RE = re.compile(r"^for\s*\((.*)$", re.DOTALL)
_IF_RE = re.compile(r"^(?:\}?\s*else\s+)?if\s*\((.*)$", re.DOTALL)
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[xyz])?|\d+")
_INT_RE = re.compile(r"^\d+$")


@dataclass
class _Context:
    kind: str        # "kernel" | "function" | "if" | "else" | "for" | "block"
    divergent: bool
    line: int


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


def _strip_comments(source: str) -> str:
    """Blank out comments, preserving line structure and column offsets."""
    out: list[str] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("".join(c if c == "\n" else " " for c in source[i:end]))
            i = end
        elif ch == "/" and i + 1 < n and source[i + 1] == "/":
            end = source.find("\n", i)
            end = n if end < 0 else end
            out.append(" " * (end - i))
            i = end
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _split_top(text: str, separators: str) -> list[str]:
    """Split on any of ``separators`` at bracket depth zero."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in separators:
            parts.append("".join(current))
            current = [ch]  # keep the separator as a prefix of the next part
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


class _ExprInfo:
    """What the dataflow knows about one integer expression."""

    __slots__ = ("divergent", "stride", "value")

    def __init__(self, divergent: bool, stride: int | None, value: int | None):
        self.divergent = divergent
        self.stride = stride  # thread stride along threadIdx.x; None = unknown
        self.value = value    # constant value when provable


def _analyse(expr: str, state: _KernelState) -> _ExprInfo:
    expr = expr.strip()
    if not expr:
        return _ExprInfo(False, 0, None)
    tokens = _TOKEN_RE.findall(expr)
    divergent = any(t in state.divergent for t in tokens)
    if _INT_RE.match(expr):
        return _ExprInfo(False, 0, int(expr))
    # Additive decomposition at depth 0; each term multiplicative.
    stride: int | None = 0
    for part in _split_top(expr, "+-"):
        sign = -1 if part.startswith("-") else 1
        term = part.lstrip("+-").strip()
        if not term:
            continue
        term_stride = _term_stride(term, state)
        if term_stride is None or stride is None:
            stride = None
        else:
            stride += sign * term_stride
    return _ExprInfo(divergent, stride, None)


def _term_stride(term: str, state: _KernelState) -> int | None:
    """Thread stride of one multiplicative term, or None when unknown."""
    if "/" in term or "%" in term:
        info_tokens = _TOKEN_RE.findall(term)
        if all(t in state.uniform or _INT_RE.match(t) for t in info_tokens):
            return 0
        return None
    constant = 1
    varying: int | None = None
    unquantified = False  # uniform factor of unknown magnitude
    for factor in (f.lstrip("*").strip() for f in _split_top(term, "*")):
        if not factor:
            continue
        if factor.startswith("(") and factor.endswith(")"):
            inner = _analyse(factor[1:-1], state)
            if inner.stride is None:
                return None
            if inner.stride == 0:
                if inner.value is not None:
                    constant *= inner.value
                else:
                    unquantified = True
            elif varying is not None:
                return None
            else:
                varying = inner.stride
        elif _INT_RE.match(factor):
            constant *= int(factor)
        elif factor in state.strides and state.strides[factor] != 0:
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


def _subscripts(text: str, start: int) -> tuple[list[str], int]:
    """Consecutive ``[expr]`` groups beginning at ``text[start]``."""
    groups: list[str] = []
    i = start
    while i < len(text) and text[i] == "[":
        depth = 0
        j = i
        while j < len(text):
            if text[j] == "[":
                depth += 1
            elif text[j] == "]":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if depth != 0:
            break
        groups.append(text[i + 1:j])
        i = j + 1
    return groups, i


class _Linter:
    def __init__(self, warp_size: int):
        self.warp = warp_size
        self.findings: list[LintFinding] = []
        self.kernels: list[str] = []
        self.notes: list[str] = []
        self._seen: set[tuple[str, int, int]] = set()

    def report(
        self, rule: str, severity: str, message: str,
        line: int, col: int, width: int, snippet: str,
    ) -> None:
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

    # -- statement handling ---------------------------------------------------------

    def statement(
        self, text: str, line: int, stack: list[_Context], state: _KernelState
    ) -> None:
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            return
        shared = _SHARED_RE.search(stripped)
        if shared is not None:
            name, dims = shared.group(1), shared.group(2)
            state.shared[name] = tuple(
                int(d) for d in re.findall(r"\[(\d+)\]", dims)
            )
            return
        if "__syncthreads" in stripped and state.is_kernel:
            divergent = [ctx for ctx in stack if ctx.divergent]
            if divergent:
                where = divergent[-1]
                self.report(
                    "sync-divergence", "error",
                    "__syncthreads() under divergent control flow (the "
                    f"{where.kind} opened at line {where.line} has a "
                    "thread-dependent condition): threads that skip the "
                    "barrier deadlock the block",
                    line, 0, len(stripped), stripped,
                )
        self._scan_accesses(stripped, line, state)
        decl = _DECL_RE.match(stripped.rstrip(";").strip())
        target = decl or _ASSIGN_RE.match(stripped.rstrip(";").strip())
        if target is not None and "[" not in target.group(1):
            self._define(target.group(1), target.group(2), state)

    def _define(self, name: str, expr: str, state: _KernelState) -> None:
        info = _analyse(expr, state)
        state.divergent.discard(name)
        state.uniform.discard(name)
        state.strides.pop(name, None)
        state.bounds.pop(name, None)
        if info.divergent:
            state.divergent.add(name)
        tokens = _TOKEN_RE.findall(expr)
        if tokens and all(
            t in state.uniform or _INT_RE.match(t) for t in tokens
        ):
            state.uniform.add(name)
        if info.stride is not None:
            state.strides[name] = info.stride

    # -- access rules ---------------------------------------------------------------

    def _scan_accesses(self, stmt: str, line: int, state: _KernelState) -> None:
        if not state.is_kernel:
            return
        for name, extents in state.shared.items():
            for match in re.finditer(rf"\b{re.escape(name)}\[", stmt):
                groups, _ = _subscripts(stmt, match.end() - 1)
                self._check_shared(
                    name, extents, groups, stmt, line, match.start(), state
                )
        for name in state.pointers:
            for match in re.finditer(rf"\b{re.escape(name)}\[", stmt):
                groups, _ = _subscripts(stmt, match.end() - 1)
                self._check_global(name, groups, stmt, line, match.start(), state)

    def _check_shared(
        self, name: str, extents: tuple[int, ...], groups: list[str],
        stmt: str, line: int, col: int, state: _KernelState,
    ) -> None:
        if len(groups) != len(extents):
            return  # partial indexing: element address is not determined
        # Out-of-bounds: literals and bounded loop variables.
        for axis, (expr, extent) in enumerate(zip(groups, extents)):
            expr = expr.strip()
            info = _analyse(expr, state)
            peak: int | None = None
            if info.value is not None:
                peak = info.value
            elif expr in state.bounds:
                peak = state.bounds[expr] - 1
            if peak is not None and peak >= extent:
                self.report(
                    "shared-oob", "error",
                    f"index {expr} reaches {peak} on axis {axis} of "
                    f"{name}[{']['.join(str(e) for e in extents)}] "
                    f"(extent {extent}): statically out of bounds",
                    line, col, len(name), stmt,
                )
        # Bank conflicts: element stride of a warp across the access.
        stride: int | None = 0
        for axis, expr in enumerate(groups):
            info = _analyse(expr, state)
            if info.stride is None:
                return  # unprovable — stay silent
            pitch = math.prod(extents[axis + 1:])
            assert stride is not None
            stride += info.stride * pitch
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
                line, col, len(name), stmt,
            )

    def _check_global(
        self, name: str, groups: list[str], stmt: str, line: int, col: int,
        state: _KernelState,
    ) -> None:
        if not groups:
            return
        inner = groups[-1].strip()
        call = re.match(r"^\w+\s*\((.*)\)$", inner)
        if call is not None:
            # Index through an address helper: the last argument is the
            # innermost (contiguous) coordinate.
            parts = [
                a.strip().lstrip(",").strip()
                for a in _split_top(call.group(1), ",")
            ]
            args = [a for a in parts if a]
            if not args:
                return
            outer, inner = args[:-1], args[-1]
        else:
            outer = [g.strip() for g in groups[:-1]]
        for position, expr in enumerate(outer):
            info = _analyse(expr, state)
            if info.stride is not None and info.stride != 0:
                self.report(
                    "global-uncoalesced", "warning",
                    f"thread-varying index {expr!r} in non-innermost "
                    f"position {position} of access to {name}: warps touch "
                    "one DRAM transaction per thread",
                    line, col, len(name), stmt,
                )
        info = _analyse(inner, state)
        if info.stride is not None and abs(info.stride) > 1:
            self.report(
                "global-uncoalesced", "warning",
                f"innermost index of {name} has thread stride "
                f"{info.stride} elements: accesses of one warp span "
                f"{abs(info.stride)}x more DRAM transactions than a unit "
                "stride",
                line, col, len(name), stmt,
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
                1, 0, 0, "",
            )

    text = _strip_comments(source)
    # Blank preprocessor lines: they end without ';' and would otherwise
    # bleed into the following statement buffer.
    text = "\n".join(
        "" if stripped.lstrip().startswith("#") else stripped
        for stripped in text.split("\n")
    )
    lines = text.count("\n") + 1
    stack: list[_Context] = []
    state = _KernelState.fresh(None, False)
    last_popped: _Context | None = None
    buffer: list[str] = []
    line = 1
    paren_depth = 0
    stmt_line = 1

    def classify(header: str) -> _Context:
        nonlocal state
        header = header.strip()
        kernel = _KERNEL_RE.search(header)
        if kernel is not None:
            state = _KernelState.fresh(kernel.group(1), True)
            linter.kernels.append(kernel.group(1))
            for param in kernel.group(2).split(","):
                param = param.strip()
                if not param:
                    continue
                pieces = param.replace("*", " * ").split()
                if "*" in pieces:
                    state.pointers.add(pieces[-1])
                state.uniform.add(pieces[-1])
            return _Context("kernel", False, stmt_line)
        if re.match(r"^\w[\w\s]*\s+\w+\s*\(", header) and "=" not in header:
            state = _KernelState.fresh(None, False)
            return _Context("function", False, stmt_line)
        if_match = _IF_RE.match(header)
        if if_match is not None:
            condition = if_match.group(1).rstrip(") {")
            info = _analyse_condition(condition, state)
            return _Context("if", info, stmt_line)
        if header.startswith("else"):
            inherited = bool(
                last_popped and last_popped.kind == "if" and last_popped.divergent
            )
            return _Context("else", inherited, stmt_line)
        for_match = _FOR_RE.match(header)
        if for_match is not None:
            inside = for_match.group(1).rstrip(") {")
            divergent = _analyse_condition(inside, state)
            _register_loop(inside, state)
            return _Context("for", divergent, stmt_line)
        if header.startswith("while"):
            return _Context("for", _analyse_condition(header, state), stmt_line)
        return _Context("block", False, stmt_line)

    def _analyse_condition(text_: str, st: _KernelState) -> bool:
        return any(t in st.divergent for t in _TOKEN_RE.findall(text_))

    def _register_loop(inside: str, st: _KernelState) -> None:
        parts = _split_top(inside, ";")
        parts = [p.lstrip(";").strip() for p in parts]
        if len(parts) < 2:
            return
        init = _DECL_RE.match(parts[0]) or _ASSIGN_RE.match(parts[0])
        if init is None:
            return
        var, start = init.group(1), init.group(2).strip()
        linter_state_define(var, start, st)
        bound = re.match(rf"^{re.escape(var)}\s*<\s*(\d+)$", parts[1])
        nonneg = _INT_RE.match(start) or start.startswith("threadIdx")
        if bound is not None and nonneg and (
            not _INT_RE.match(start) or int(start) >= 0
        ):
            st.bounds[var] = int(bound.group(1))

    def linter_state_define(var: str, expr: str, st: _KernelState) -> None:
        linter._define(var, expr, st)

    has_content = False

    def _push(ch: str) -> None:
        nonlocal has_content, stmt_line
        if not has_content and not ch.isspace():
            stmt_line = line
            has_content = True
        buffer.append(ch)

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            buffer.append(" ")
        elif ch == "(":
            paren_depth += 1
            _push(ch)
        elif ch == ")":
            paren_depth -= 1
            _push(ch)
        elif ch == ";" and paren_depth == 0:
            buffer.append(ch)
            linter.statement("".join(buffer), stmt_line, stack, state)
            buffer, has_content = [], False
        elif ch == "{" and paren_depth == 0:
            stack.append(classify("".join(buffer)))
            buffer, has_content = [], False
        elif ch == "}" and paren_depth == 0:
            if stack:
                last_popped = stack.pop()
                if last_popped.kind in ("kernel", "function"):
                    state = _KernelState.fresh(None, False)
            buffer, has_content = [], False
        else:
            _push(ch)
        i += 1

    return LintReport(
        findings=tuple(
            sorted(linter.findings, key=lambda f: (f.severity != "error", f.line))
        ),
        lines_scanned=lines,
        kernels=tuple(linter.kernels),
        notes=tuple(linter.notes),
    )


__all__ = ["lint_cuda"]

"""Chrome trace-event schema validation (the CI trace-smoke gate).

Checks the structural invariants downstream viewers rely on: a
``traceEvents`` list whose events all carry ``name``/``ph``/``pid``/``tid``,
complete-duration events (``"X"``) with numeric ``ts``/``dur`` (durations
must be non-negative), unique span ids, and parent links that are sound —
every parent id resolves within the trace (no **orphan spans**), no span
is its own parent, and following parent links never cycles.

Usable as a library (:func:`validate_chrome_trace`, or
:func:`validate_spans` for in-memory :class:`~repro.obs.Span` lists before
export) and as a CLI::

    python -m repro.obs.validate trace.json

Exit codes: 0 valid, 1 invalid, 2 unreadable/not JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Mapping, Sequence
from typing import Any


def _parent_link_problems(
    links: Mapping[str, str | None], where: Mapping[str, str]
) -> list[str]:
    """Problems in a span_id → parent_id map: orphans, self-parents, cycles.

    ``where`` maps span ids to a human-readable location for messages.
    """
    problems: list[str] = []
    for span_id, parent in links.items():
        if parent is None:
            continue
        if parent == span_id:
            problems.append(f"{where[span_id]}: span is its own parent")
        elif parent not in links:
            problems.append(
                f"{where[span_id]}: orphan span, parent_id {parent!r} "
                "does not resolve"
            )
    # Cycle detection over the resolvable links (a cycle never terminates
    # at a root, so walking with a visited set finds it).
    state: dict[str, int] = {}  # 1 = in progress, 2 = done
    for start in links:
        if state.get(start):
            continue
        path: list[str] = []
        node: str | None = start
        while node is not None and node in links and not state.get(node):
            state[node] = 1
            path.append(node)
            node = links[node]
        if node is not None and state.get(node) == 1:
            cycle_start = path.index(node)
            cycle = " -> ".join(path[cycle_start:] + [node])
            problems.append(f"{where[node]}: parent cycle ({cycle})")
        for visited in path:
            state[visited] = 2
    return problems


def validate_spans(spans: Sequence[Any]) -> list[str]:
    """Validate in-memory spans (before export): same parent-link rules."""
    problems: list[str] = []
    links: dict[str, str | None] = {}
    where: dict[str, str] = {}
    for index, span in enumerate(spans):
        location = f"spans[{index}] ({span.name})"
        if not span.span_id:
            problems.append(f"{location}: empty span_id")
            continue
        if span.span_id in links:
            problems.append(f"{location}: duplicate span_id {span.span_id!r}")
            continue
        if span.duration_ns < 0:
            problems.append(f"{location}: negative duration")
        links[span.span_id] = span.parent_id
        where[span.span_id] = location
    problems.extend(_parent_link_problems(links, where))
    return problems


def validate_chrome_trace(document: Any) -> list[str]:
    """Return every schema problem found (empty list = valid)."""
    if not isinstance(document, Mapping):
        return ["document is not a JSON object"]
    problems: list[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document has no traceEvents list"]
    if not events:
        problems.append("traceEvents is empty")
    span_ids: set[str] = set()
    links: dict[str, str | None] = {}
    where: dict[str, str] = {}
    # Parent refs from events that could not register a span id (missing or
    # duplicate) — their links still have to resolve somewhere.
    dangling: list[tuple[str, str]] = []
    for index, event in enumerate(events):
        location = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            problems.append(f"{location}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                problems.append(f"{location}: missing {field!r}")
        phase = event.get("ph")
        if not isinstance(event.get("name"), str):
            problems.append(f"{location}: name is not a string")
        for field in ("pid", "tid"):
            if field in event and not isinstance(event[field], int):
                problems.append(f"{location}: {field} is not an integer")
        if phase == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)):
                    problems.append(f"{location}: {field} is not a number")
                elif field == "dur" and value < 0:
                    problems.append(f"{location}: negative dur")
            args = event.get("args")
            if not isinstance(args, Mapping):
                problems.append(f"{location}: X event has no args object")
                continue
            span_id = args.get("span_id")
            if not isinstance(span_id, str) or not span_id:
                problems.append(f"{location}: args.span_id missing or empty")
                span_id = None
            elif span_id in span_ids:
                problems.append(f"{location}: duplicate span_id {span_id!r}")
                span_id = None
            else:
                span_ids.add(span_id)
            parent = args.get("parent_id")
            if parent is not None and not isinstance(parent, str):
                problems.append(f"{location}: args.parent_id is not a string")
                parent = None
            if span_id is not None:
                links[span_id] = parent if isinstance(parent, str) else None
                where[span_id] = location
            elif isinstance(parent, str):
                dangling.append((location, parent))
        elif phase == "M":
            if not isinstance(event.get("args"), Mapping):
                problems.append(f"{location}: metadata event has no args object")
    problems.extend(_parent_link_problems(links, where))
    for location, parent in dangling:
        if parent not in links:
            problems.append(
                f"{location}: orphan span, parent_id {parent!r} does not resolve"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate a Chrome trace-event JSON file (hexcc trace output).",
    )
    parser.add_argument("trace", help="path to a trace.json")
    args = parser.parse_args(argv)
    try:
        document = json.loads(Path(args.trace).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {args.trace}: {error}", file=sys.stderr)
        return 2
    problems = validate_chrome_trace(document)
    if problems:
        for problem in problems:
            print(f"INVALID {problem}", file=sys.stderr)
        print(f"{args.trace}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    events = document["traceEvents"]
    spans = sum(1 for event in events if event.get("ph") == "X")
    pids = {event.get("pid") for event in events}
    print(f"{args.trace}: valid ({spans} spans across {len(pids)} process(es))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

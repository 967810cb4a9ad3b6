#!/usr/bin/env python3
"""Compile a user-written C stencil with the front end.

The example demonstrates the whole "bring your own stencil" workflow on
``examples/custom_stencil.c``:

1. parse the C source into a :class:`StencilProgram` with
   :func:`repro.frontend.parse_stencil`,
2. inspect the recovered structure (statements, loads, flops, margins),
3. register it so ``get_stencil``/the CLI can build it by name,
4. compile a small instance, validate the schedule and simulate it,
5. print the predicted performance at the source's full problem size.

Run with:  python examples/compile_custom.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import (
    Session,
    get_stencil,
    parse_stencil,
    register_from_source,
    unregister,
)
from repro.tiling.validate import validate_hybrid_tiling


def main() -> None:
    source = (Path(__file__).resolve().parent / "custom_stencil.c").read_text()

    # 1. parse — the program keeps the original source (program.c_source()).
    program = parse_stencil(source)
    print(f"parsed {program.name}: {program.ndim}-D, sizes={program.sizes}, "
          f"steps={program.time_steps}")
    for statement in program.statements:
        print(f"  {statement.name}: writes {statement.target}, "
              f"{statement.loads} loads, {statement.flops} flops, "
              f"margins {statement.lower_margin}/{statement.upper_margin}")
    print()

    # 2. register it so the rest of the tool chain can build it by name.
    register_from_source(source, replace=True)
    small = get_stencil(program.name, sizes=(20, 20), steps=8)

    # 3. compile, validate and simulate the small instance.
    session = Session()
    run = session.run(small)
    tiling = run.artifact("tiling").tiling
    print(tiling.describe())
    print(run.artifact("memory").plan.describe())
    print(f"schedule validation: {validate_hybrid_tiling(tiling)}")
    run.simulate_and_check()
    print("functional simulation matches the NumPy reference")
    print()

    # 4. performance prediction at the full size declared in the source.
    full = session.run(program, stop_after="analysis")
    print(full.artifact("analysis").report.summary())

    unregister(program.name)


if __name__ == "__main__":
    main()

"""The CLI's help and usage text, byte for byte.

``tests/golden/cli_help.txt`` holds, for each argv below, what
``main(argv)`` returns and prints.  Regenerate it from the checkout root
with::

    PYTHONPATH=src python tests/test_cli_text.py > tests/golden/cli_help.txt
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import sys
from unittest import mock

from repro.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_help.txt"

#: Every ``hexcc`` command, in the order ``hexcc --help`` lists them.
COMMANDS = (
    "list", "compile", "inspect", "verify", "validate", "compile-file",
    "validate-file", "table", "tables", "cache", "tune", "tune-table", "trace",
    "profile", "perf", "bench",
)

ARGVS: tuple[tuple[str, ...], ...] = (
    ("--help",),
    *((command, "--help") for command in COMMANDS),
    ("perf", "history", "--help"),
    ("perf", "diff", "--help"),
    # Usage errors: each prints a usage line and exits 2 before any work.
    (),
    ("bogus",),
    ("compile",),
    ("compile", "heat_3d", "--bogus"),
    ("compile", "heat_3d", "extra"),
    ("perf",),
    ("--bogus", "compile", "heat_3d"),
)


def transcript() -> str:
    """Exit code, stdout and stderr of ``main(argv)`` for every argv of ARGVS.

    Help is wrapped to 80 columns, whatever the terminal's width.
    """
    sections: list[str] = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in ARGVS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            sections.append(
                f"=== hexcc {' '.join(argv)}".rstrip() + f"\n--- exit {code}\n"
                f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
            )
    return "".join(sections)


def test_help_and_usage_text_is_pinned():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(transcript())

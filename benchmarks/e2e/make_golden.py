"""Regenerate golden.json, the known answers run.py checks responses against.

    python benchmarks/e2e/make_golden.py

Records, each from a fresh process with an empty cache:

* ``list``: the stencil names;
* ``compile/<stencil>/<device>``: the sha256 of the CUDA text printed by
  ``--show-cuda`` and the chosen tile sizes, for every stencil and device
  (``warm-compile`` sends them all);
* ``validate/<stencil>/<n>x<t>``: the validation report line, and that the
  functional simulation matched the NumPy reference interpreter.

Verify requests are checked by rule instead (see ``run.check``); this script
confirms the rule holds for every one the workloads send.  Regenerate only
when a change is meant to alter these outputs, and say so in its review.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import GOLDEN, LIST_REQUEST, RUNS, WORKLOADS, Runner, check, known_answer


def main() -> int:
    requests = dict.fromkeys(
        [LIST_REQUEST] + [r for workload in WORKLOADS.values() for r in workload.round]
    )
    workdir = RUNS / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True)
    cache = workdir / "cache"
    golden = {}
    try:
        runner = Runner(workdir, golden={})
        for request in requests:
            shutil.rmtree(cache, ignore_errors=True)
            _, exit_code, _, stdout = runner.spawn(request, cache)
            if request.kind in ("verify", "mutant"):
                error = check(request, exit_code, stdout, golden)
                if error is not None:
                    print(f"{' '.join(request.argv)}: {error}", file=sys.stderr)
                    return 1
                continue
            if exit_code != 0:
                print(f"{' '.join(request.argv)}: exit code {exit_code}", file=sys.stderr)
                return 1
            golden[request.key] = known_answer(request, stdout)
            print(f"{request.key}: {golden[request.key]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} known answers to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

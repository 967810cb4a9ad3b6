"""The parallel execution engine.

A thin, deterministic process-pool layer used by the bench harness, the
experiment drivers and the CLI to fan compile/validate/simulate jobs and the
Table 1–5 stencil×tile-size sweeps across cores.  Results always come back
in submission order, so ``--jobs N`` output is identical to ``--jobs 1``
output; workers share compiled artefacts through the on-disk cache
(:mod:`repro.cache`).
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    "map_ordered": "repro.engine.pool",
    "resolve_jobs": "repro.engine.pool",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

"""``repro.verify`` — static verification of schedules and generated CUDA.

Two analyses, both decidable because the compiler's schedules are
closed-form quasi-affine maps and its dependences constant vectors:

* :mod:`repro.verify.symbolic` — a **symbolic race detector** that proves
  (for *all* problem sizes at once) that each schedule orders every
  dependence's source before its sink under the GPU execution model, or
  reports a race with a concrete counterexample pair and the violated
  ordering level;
* :mod:`repro.verify.lint` — a **static linter** over the generated CUDA
  flagging bank conflicts, provable out-of-bounds shared accesses,
  barriers under divergent control flow and uncoalesced global accesses.

:mod:`repro.verify.faults` seeds the illegal-schedule mutation corpus that
keeps the detector honest.  The pipeline integration lives in
:mod:`repro.api` (the ``verify`` stage producing a
:class:`~repro.api.artifacts.VerificationReport`); the CLI surface is
``hexcc verify``.
"""

from typing import Any

from repro._lazy import resolve

_EXPORTS = {
    "ScheduleMutation": "repro.verify.faults",
    "get_mutation": "repro.verify.faults",
    "mutation_corpus": "repro.verify.faults",
    "lint_cuda": "repro.verify.lint",
    "Instance": "repro.verify.report",
    "LintFinding": "repro.verify.report",
    "LintReport": "repro.verify.report",
    "ORDERING_LEVELS": "repro.verify.report",
    "RaceFinding": "repro.verify.report",
    "ScheduleVerdict": "repro.verify.report",
    "VerificationError": "repro.verify.report",
    "HybridScheduleModel": "repro.verify.symbolic",
    "InnerDim": "repro.verify.symbolic",
    "verify_classical": "repro.verify.symbolic",
    "verify_diamond": "repro.verify.symbolic",
    "verify_hybrid": "repro.verify.symbolic",
    "verify_tiling_plan": "repro.verify.symbolic",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return resolve(__name__, _EXPORTS, name)

"""Property-style guarantee: any configuration the search can return is safe.

For every stencil in the library, candidates drawn from the search space are
(a) within the device shared-memory budget by the §3.7 cost model at the
paper-scale problem size, and (b) produce a hybrid tiling that passes the
exhaustive coverage/legality/uniformity validator on a small instance —
i.e. the autotuner can never return a configuration that computes wrong
answers or overflows shared memory.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.runner import SIMULATE_INSTANCES
from repro.gpu.device import GTX470
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil, list_stencils
from repro.tiling.hybrid import HybridTiling
from repro.tiling.tile_size import TileSizeModel
from repro.tiling.validate import validate_hybrid_tiling
from repro.tuning import CandidateSpace

#: Candidates sampled per stencil (seeded: the sample is stable across runs).
SAMPLES = 3


def _sampled_candidates(space):
    candidates = space.enumerate()
    rng = random.Random(1234)
    picks = rng.sample(candidates, min(SAMPLES, len(candidates)))
    # Always include the extremes of the enumeration: boundary tile shapes
    # are where coverage/legality bugs live.
    return {candidates[0], candidates[-1], *picks}


@pytest.mark.parametrize("name", list_stencils())
def test_searchable_configurations_are_valid(name):
    paper = canonicalize(get_stencil(name))
    space = CandidateSpace(paper, GTX470)
    model = TileSizeModel(paper)

    sizes, steps = SIMULATE_INSTANCES[len(paper.space_dims)]
    small = canonicalize(get_stencil(name, sizes=sizes, steps=steps))

    for candidate in _sampled_candidates(space):
        estimate = model.estimate(candidate, inter_tile_reuse=True)
        assert estimate.shared_memory_bytes <= GTX470.shared_memory_per_sm, (
            f"{name}: {candidate} overflows shared memory"
        )
        report = validate_hybrid_tiling(HybridTiling(small, candidate))
        assert report.ok, (
            f"{name}: {candidate} fails validation: {report.violations}"
        )

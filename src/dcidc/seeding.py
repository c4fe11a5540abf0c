"""Named random substreams derived from one user-supplied seed.

Every random consumer draws from its own named stream so that adding a new
consumer never perturbs the draws of existing ones.
"""

from __future__ import annotations

import numpy as np

_STREAM_IDS = {
    "init": 0,       # network weight initialization
    "h-init": 1,     # initial cluster assignments
    "shuffle": 2,    # mini-batch shuffling
    "synth": 3,      # synthetic dataset generation
}


def substream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), _STREAM_IDS[name])))

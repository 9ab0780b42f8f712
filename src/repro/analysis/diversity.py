"""Input-diversity measurement (paper Table 5).

Diversity of generated difference-inducing inputs is the average L1
distance between each generated input and its seed — larger distances
mean the generator explored further from the seed instead of producing
near-duplicates of one root cause.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.utils.imageops import l1_distance

__all__ = ["average_l1_diversity"]


def average_l1_diversity(tests, seeds):
    """Mean L1 distance from each generated test to its originating seed.

    ``tests`` is a list of :class:`~repro.core.engine.GeneratedTest`;
    ``seeds`` the array they were generated from (indexed by
    ``seed_index``).
    """
    if not tests:
        return 0.0
    seeds = np.asarray(seeds)
    distances = [l1_distance(t.x, seeds[t.seed_index]) for t in tests]
    return float(np.mean(distances))


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

__all__ = ["average_l1_diversity", "pairwise_l1_diversity"]


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


def pairwise_l1_diversity(inputs):
    """Mean pairwise L1 distance within a set of inputs."""
    inputs = np.asarray(inputs, dtype=np.float64)
    n = inputs.shape[0]
    if n < 2:
        return 0.0
    flat = inputs.reshape(n, -1)
    total = 0.0
    count = 0
    for i in range(n):
        diffs = np.abs(flat[i + 1:] - flat[i]).sum(axis=1)
        total += float(diffs.sum())
        count += diffs.size
    return total / count

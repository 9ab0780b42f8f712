"""Joint multi-neuron coverage objective (paper §4.2 extension).

Algorithm 1 activates one inactivated neuron per model per iteration; the
paper notes "we can also potentially jointly maximize multiple neurons
simultaneously, but we choose to activate one neuron at a time ... for
clarity".  This extension implements the multi-neuron variant: obj2 sums
``k`` uncovered neurons per model, which trades per-neuron gradient focus
for broader coverage pressure.  The ablation benchmark
(``benchmarks/test_ablation_multi_neuron.py``) measures the trade-off.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.utils.rng import as_rng

__all__ = ["MultiNeuronCoverageObjective"]


class MultiNeuronCoverageObjective:
    """obj2 over ``neurons_per_model`` uncovered neurons per model.

    Drop-in replacement for :class:`repro.core.CoverageObjective` (same
    ``pick`` protocol), handed to an engine as
    ``coverage_factory=lambda trackers, rng:
    MultiNeuronCoverageObjective(trackers, rng=rng)``; the engine carries
    every picked neuron on obj1's backward sweep.
    """

    def __init__(self, trackers, neurons_per_model=3, rng=None):
        if neurons_per_model < 1:
            raise ConfigError("neurons_per_model must be >= 1")
        self.trackers = list(trackers)
        self.neurons_per_model = int(neurons_per_model)
        self.rng = as_rng(rng)

    def pick(self):
        """Choose up to k uncovered neurons per model."""
        picks = []
        for tracker in self.trackers:
            uncovered = tracker.uncovered_ids()
            if uncovered.size == 0:
                picks.append([])
                continue
            count = min(self.neurons_per_model, uncovered.size)
            chosen = self.rng.choice(uncovered, size=count, replace=False)
            picks.append([int(c) for c in chosen])
        return picks

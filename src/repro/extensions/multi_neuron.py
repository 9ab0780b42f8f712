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

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import as_rng

__all__ = ["MultiNeuronCoverageObjective"]


class MultiNeuronCoverageObjective:
    """obj2 over ``neurons_per_model`` uncovered neurons per model.

    Drop-in replacement for :class:`repro.core.CoverageObjective` (same
    ``pick`` / ``value`` / ``gradient`` protocol), so it can be handed to
    :class:`repro.core.JointObjective` or to an engine as
    ``coverage_factory=lambda trackers, rng:
    MultiNeuronCoverageObjective(trackers, rng=rng)``.
    """

    def __init__(self, trackers, neurons_per_model=3, rng=None):
        if neurons_per_model < 1:
            raise ConfigError("neurons_per_model must be >= 1")
        self.trackers = list(trackers)
        self.neurons_per_model = int(neurons_per_model)
        self.rng = as_rng(rng)
        self._targets = [[] for _ in self.trackers]

    def pick(self):
        """Choose up to k uncovered neurons per model."""
        self._targets = []
        for tracker in self.trackers:
            uncovered = tracker.uncovered_ids()
            if uncovered.size == 0:
                self._targets.append([])
                continue
            count = min(self.neurons_per_model, uncovered.size)
            chosen = self.rng.choice(uncovered, size=count, replace=False)
            self._targets.append([int(c) for c in chosen])
        return [list(t) for t in self._targets]

    def value(self, x):
        total = 0.0
        for tracker, neurons in zip(self.trackers, self._targets):
            for neuron in neurons:
                total += float(tracker.network.neuron_value(x, neuron).sum())
        return total

    def gradient(self, x):
        grad = np.zeros_like(x)
        for tracker, neurons in zip(self.trackers, self._targets):
            for neuron in neurons:
                grad += tracker.network.input_gradient_of_neuron(x, neuron)
        return grad

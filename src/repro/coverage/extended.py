"""Finer-grained coverage criteria (follow-on work to the paper).

DeepXplore's neuron coverage founded a family of DNN test-adequacy
metrics; the canonical refinements (DeepGauge, Ma et al. 2018) split
each neuron's observed activation range into sections and treat the
extremes as corner-case regions.  They are implemented here as
extensions so the repo can compare them against plain neuron coverage
(``benchmarks/test_ablation_coverage_metrics.py``); none of the paper's
experiments depend on them.

All three criteria are defined against a :class:`NeuronProfile` — the
per-neuron activation range observed on the training set:

* **k-multisection coverage** — each neuron's [low, high] is divided
  into k equal sections; a section is covered when some test input lands
  the neuron's output in it.
* **boundary coverage** — fraction of neuron *corner regions* (below
  low, above high) that some test input reaches.
* **top-k neuron coverage** — fraction of neurons that were among the
  k most active of their layer for at least one test input.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoverageError
from repro.coverage.neuron import raw_activations as _raw_activations

__all__ = ["NeuronProfile", "KMultisectionCoverage", "BoundaryCoverage",
           "TopKNeuronCoverage"]


class NeuronProfile:
    """Per-neuron activation [low, high] observed on profiling data."""

    def __init__(self, network, low, high):
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        if low.shape != (network.total_neurons,) or low.shape != high.shape:
            raise CoverageError(
                "profile bounds must be per-neuron vectors")
        if np.any(low > high):
            raise CoverageError("profile low bound exceeds high bound")
        self.network = network
        self.low = low
        self.high = high

    @classmethod
    def from_data(cls, network, x, batch_size=256):
        """Profile activation ranges from (training) inputs ``x``."""
        acts = _raw_activations(network, x, batch_size=batch_size)
        return cls(network, acts.min(axis=0), acts.max(axis=0))

    def span(self):
        """Per-neuron range width (zero for constant neurons)."""
        return self.high - self.low


class KMultisectionCoverage:
    """k-multisection neuron coverage over a profile."""

    def __init__(self, profile, k=10):
        if k < 1:
            raise CoverageError(f"k must be >= 1, got {k}")
        self.profile = profile
        self.k = int(k)
        self.covered = np.zeros((profile.network.total_neurons, self.k),
                                dtype=bool)

    def update(self, x):
        """Fold test inputs into section coverage; returns #new sections."""
        acts = _raw_activations(self.profile.network, x)
        span = self.profile.span()
        safe_span = np.where(span > 0, span, 1.0)
        # Section index per (input, neuron); outside-range values are
        # boundary territory, not multisection coverage.
        frac = (acts - self.profile.low[None, :]) / safe_span[None, :]
        in_range = (frac >= 0.0) & (frac <= 1.0) & (span > 0)[None, :]
        sections = np.clip((frac * self.k).astype(int), 0, self.k - 1)
        before = int(self.covered.sum())
        rows = np.broadcast_to(np.arange(acts.shape[1])[None, :],
                               acts.shape)
        self.covered[rows[in_range], sections[in_range]] = True
        return int(self.covered.sum()) - before

    def coverage(self):
        """Covered sections / (k * neurons-with-nonzero-span)."""
        span = self.profile.span()
        usable = span > 0
        if not usable.any():
            raise CoverageError("profile has no neurons with range")
        return float(self.covered[usable].sum() / (self.k * usable.sum()))


class BoundaryCoverage:
    """Corner-case coverage: activations beyond the profiled range."""

    def __init__(self, profile):
        self.profile = profile
        n = profile.network.total_neurons
        self.below = np.zeros(n, dtype=bool)
        self.above = np.zeros(n, dtype=bool)

    def update(self, x):
        acts = _raw_activations(self.profile.network, x)
        before = int(self.below.sum() + self.above.sum())
        self.below |= (acts < self.profile.low[None, :]).any(axis=0)
        self.above |= (acts > self.profile.high[None, :]).any(axis=0)
        return int(self.below.sum() + self.above.sum()) - before

    def coverage(self):
        """Covered corner regions / (2 * neurons)."""
        n = self.profile.network.total_neurons
        return float((self.below.sum() + self.above.sum()) / (2 * n))


class TopKNeuronCoverage:
    """Fraction of neurons ever among their layer's top-k most active."""

    def __init__(self, network, k=2):
        if k < 1:
            raise CoverageError(f"k must be >= 1, got {k}")
        self.network = network
        self.k = int(k)
        self.hot = np.zeros(network.total_neurons, dtype=bool)

    def update(self, x):
        acts = _raw_activations(self.network, x)
        before = int(self.hot.sum())
        for entry in self.network.neuron_layers:
            block = acts[:, entry.offset:entry.offset + entry.count]
            k = min(self.k, entry.count)
            top = np.argsort(block, axis=1)[:, -k:]
            flat = np.unique(top) + entry.offset
            self.hot[flat] = True
        return int(self.hot.sum()) - before

    def coverage(self):
        return float(self.hot.mean())

"""Joint-optimization objectives (paper §4.2, Equations 2-3).

``obj_joint(x) = (sum_{k != j} F_k(x)[c] - lambda1 * F_j(x)[c])
                 + lambda2 * f_n(x)``

The first term pushes one randomly chosen DNN ``F_j`` away from the seed
class ``c`` while holding the others on it; the second pushes a currently
inactivated neuron ``n`` (one per model, re-picked every iteration) above
the activation threshold.  Every term is differentiable, so the whole
objective's input-gradient is the sum of per-term input-gradients.

Each objective's ``gradient(x)`` runs the models itself (``value(x)``
is the matching objective value); these self-contained forms are the
reference the engine is tested against.  The generation engine does not
call them: it builds obj1's output seed from the iteration's recorded
:class:`~repro.nn.tape.ForwardPass` tapes and hands the neurons a
:class:`CoverageObjective` picks to the same backward sweep
(:meth:`~repro.nn.tape.ForwardPass.gradient_joint`), so one forward and
one backward per model per iteration serve the whole objective.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import as_rng

__all__ = ["DifferentialObjective", "RegressionDifferentialObjective",
           "CoverageObjective", "JointObjective"]


class DifferentialObjective:
    """Equation 2 for classifiers: suppress F_j's class-c score."""

    def __init__(self, models, target_index, seed_class, lambda1):
        if not 0 <= target_index < len(models):
            raise ConfigError(
                f"target_index {target_index} out of range for "
                f"{len(models)} models")
        self.models = list(models)
        self.target_index = int(target_index)
        self.seed_class = int(seed_class)
        self.lambda1 = float(lambda1)

    def gradient_from_tapes(self, tapes):
        grad = np.zeros_like(tapes[0].x)
        for k, tape in enumerate(tapes):
            g = tape.gradient_of_class(self.seed_class)
            grad += -self.lambda1 * g if k == self.target_index else g
        return grad

    def value(self, x):
        total = 0.0
        for k, model in enumerate(self.models):
            score = float(model.predict(x)[:, self.seed_class].sum())
            total += -self.lambda1 * score if k == self.target_index else score
        return total

    def gradient(self, x):
        return self.gradient_from_tapes([m.run(x) for m in self.models])


class RegressionDifferentialObjective:
    """Equation 2's analogue for the steering regressors.

    Pushes the chosen model's angle down while pushing the others' angles
    up, driving the predictions apart until the steering directions
    disagree.
    """

    def __init__(self, models, target_index, lambda1):
        if not 0 <= target_index < len(models):
            raise ConfigError(
                f"target_index {target_index} out of range for "
                f"{len(models)} models")
        self.models = list(models)
        self.target_index = int(target_index)
        self.lambda1 = float(lambda1)

    def gradient_from_tapes(self, tapes):
        grad = np.zeros_like(tapes[0].x)
        seed = np.ones(self.models[0].output_shape, dtype=tapes[0].dtype)
        for k, tape in enumerate(tapes):
            g = tape.gradient_of_output(seed)
            grad += -self.lambda1 * g if k == self.target_index else g
        return grad

    def value(self, x):
        total = 0.0
        for k, model in enumerate(self.models):
            angle = float(model.predict(x).sum())
            total += -self.lambda1 * angle if k == self.target_index else angle
        return total

    def gradient(self, x):
        return self.gradient_from_tapes([m.run(x) for m in self.models])


class CoverageObjective:
    """obj2: the summed output of one inactivated neuron per model.

    Algorithm 1 line 33 re-picks the neurons each iteration; call
    :meth:`pick` per iteration and then :meth:`gradient` (the engine
    instead carries the picks on obj1's backward sweep).
    """

    def __init__(self, trackers, rng=None):
        self.trackers = list(trackers)
        self.rng = as_rng(rng)
        self._targets = [None] * len(self.trackers)

    def pick(self):
        """Choose an uncovered neuron per model; returns the choices."""
        self._targets = [t.pick_uncovered(self.rng) for t in self.trackers]
        return list(self._targets)

    def value(self, x):
        total = 0.0
        for tracker, neuron in zip(self.trackers, self._targets):
            if neuron is None:
                continue
            total += float(tracker.network.neuron_value(x, neuron).sum())
        return total

    def gradient(self, x):
        grad = np.zeros_like(x)
        for tracker, neuron in zip(self.trackers, self._targets):
            if neuron is None:
                continue
            grad += tracker.network.input_gradient_of_neuron(x, neuron)
        return grad


class JointObjective:
    """obj1 + lambda2 * obj2 (Equation 3)."""

    def __init__(self, differential, coverage, lambda2):
        self.differential = differential
        self.coverage = coverage
        self.lambda2 = float(lambda2)

    def step_gradient(self, x):
        """Gradient for one ascent iteration (re-picks coverage neurons)."""
        grad = self.differential.gradient(x)
        if self.lambda2 > 0.0 and self.coverage is not None:
            self.coverage.pick()
            grad = grad + self.lambda2 * self.coverage.gradient(x)
        return grad

    def value(self, x):
        total = self.differential.value(x)
        if self.lambda2 > 0.0 and self.coverage is not None:
            total += self.lambda2 * self.coverage.value(x)
        return total

"""Self-contained forms of the joint objective (paper Equations 2-3).

Each form runs the models itself on fresh tapes: ``value(x)`` is the
objective and ``gradient(x)`` its input-gradient, one backward per term.
The engine never builds them; it evaluates the same objective on the
iteration's recorded tapes with one ``ForwardPass.gradient_joint`` sweep
per model.  The engine tests compare that loop against these forms.

``picks`` below are what a coverage objective's ``pick()`` returns: one
entry per model, ``None``, a flat neuron id, or a list of ids.
"""

import numpy as np

from repro.errors import ConfigError
from tests.nn.gradcheck import gradient_of_class, neuron_value


def _neuron_ids(pick):
    if pick is None:
        return []
    return [pick] if np.ndim(pick) == 0 else list(pick)


def coverage_value(trackers, picks, x):
    """obj2: the summed outputs of the picked neurons, over all models."""
    total = 0.0
    for tracker, pick in zip(trackers, picks):
        tape = tracker.network.run(x)
        for neuron in _neuron_ids(pick):
            total += float(neuron_value(tape, neuron).sum())
    return total


def coverage_gradient(trackers, picks, x):
    """Input-gradient of :func:`coverage_value`, one sweep per neuron."""
    grad = np.zeros_like(x)
    for tracker, pick in zip(trackers, picks):
        for neuron in _neuron_ids(pick):
            grad += tracker.network.run(x).gradient_of_neuron(neuron)
    return grad


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

    def value(self, x):
        total = 0.0
        for k, model in enumerate(self.models):
            score = float(model.predict(x)[:, self.seed_class].sum())
            total += -self.lambda1 * score if k == self.target_index else score
        return total

    def gradient(self, x):
        grad = np.zeros_like(x)
        for k, model in enumerate(self.models):
            g = gradient_of_class(model.run(x), self.seed_class)
            grad += -self.lambda1 * g if k == self.target_index else g
        return grad


class RegressionDifferentialObjective:
    """Equation 2's analogue for the steering regressors: push the
    chosen model's angle down and the others' up."""

    def __init__(self, models, target_index, lambda1):
        if not 0 <= target_index < len(models):
            raise ConfigError(
                f"target_index {target_index} out of range for "
                f"{len(models)} models")
        self.models = list(models)
        self.target_index = int(target_index)
        self.lambda1 = float(lambda1)

    def value(self, x):
        total = 0.0
        for k, model in enumerate(self.models):
            angle = float(model.predict(x).sum())
            total += -self.lambda1 * angle if k == self.target_index else angle
        return total

    def gradient(self, x):
        grad = np.zeros_like(x)
        for k, model in enumerate(self.models):
            tape = model.run(x)
            g = tape.gradient_of_output(
                np.ones(model.output_shape, dtype=tape.dtype))
            grad += -self.lambda1 * g if k == self.target_index else g
        return grad


class JointObjective:
    """obj1 + lambda2 * obj2 (Equation 3).

    ``coverage`` is the engine's coverage objective (its ``pick()``
    chooses the neurons); ``value`` reads the neurons the last
    :meth:`step_gradient` picked.
    """

    def __init__(self, differential, coverage, lambda2):
        self.differential = differential
        self.coverage = coverage
        self.lambda2 = float(lambda2)
        self.picks = []

    def _covers(self):
        return self.lambda2 > 0.0 and self.coverage is not None

    def step_gradient(self, x):
        """Gradient for one ascent iteration (re-picks coverage neurons)."""
        grad = self.differential.gradient(x)
        if self._covers():
            self.picks = self.coverage.pick()
            grad = grad + self.lambda2 * coverage_gradient(
                self.coverage.trackers, self.picks, x)
        return grad

    def value(self, x):
        total = self.differential.value(x)
        if self._covers():
            total += self.lambda2 * coverage_value(self.coverage.trackers,
                                                   self.picks, x)
        return total

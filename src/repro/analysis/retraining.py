"""Retraining with generated tests (paper §7.3, Figure 10).

Augmenting the training set with difference-inducing inputs — labelled
automatically by majority vote across the tested DNNs — and retraining for
a few epochs improves accuracy more than augmenting with the same number
of random or adversarial inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.nn import Trainer, accuracy

__all__ = ["RetrainingCurve", "retrain_with_augmentation"]


@dataclass
class RetrainingCurve:
    """Accuracy after each retraining epoch (index 0 = before retraining)."""

    source: str
    accuracies: list = field(default_factory=list)

    @property
    def improvement(self):
        """Accuracy gain from epoch 0 to the final epoch."""
        return self.accuracies[-1] - self.accuracies[0]


def retrain_with_augmentation(network, dataset, extra_x, extra_y, epochs=5,
                              batch_size=64, lr=5e-4, rng=None,
                              source="deepxplore"):
    """Retrain ``network`` on train-set ∪ extra samples; track accuracy.

    The network is mutated in place (callers wanting to preserve the
    original should reload from cache or deep-copy the state dict first).
    Returns a :class:`RetrainingCurve` with ``epochs + 1`` entries.
    """
    extra_x = np.asarray(extra_x, dtype=np.float64)
    extra_y = np.asarray(extra_y)
    if extra_x.shape[0] != extra_y.shape[0]:
        raise ConfigError("extra_x/extra_y sample counts differ")
    x_aug = np.concatenate([dataset.x_train, extra_x])
    y_aug = np.concatenate([np.asarray(dataset.y_train), extra_y])
    curve = RetrainingCurve(source=source)
    curve.accuracies.append(accuracy(network, dataset.x_test, dataset.y_test))
    trainer = Trainer(network, loss="cross_entropy", lr=lr, rng=rng)
    for _ in range(epochs):
        trainer.fit(x_aug, y_aug, epochs=1, batch_size=batch_size)
        curve.accuracies.append(
            accuracy(network, dataset.x_test, dataset.y_test))
    return curve

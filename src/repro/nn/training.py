"""Minibatch training loop and evaluation metrics."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nn.losses import get_loss
from repro.nn.optimizers import Adam
from repro.nn.workspace import Workspace
from repro.utils.rng import as_rng

__all__ = ["Trainer", "accuracy", "mse", "steering_accuracy"]


def accuracy(network, x, y, batch_size=256):
    """Top-1 classification accuracy of ``network`` on ``(x, y)``."""
    probs = network.predict(x, batch_size=batch_size)
    return float((probs.argmax(axis=1) == np.asarray(y)).mean())


def mse(network, x, y, batch_size=256):
    """Mean squared error of a regression network on ``(x, y)``."""
    preds = network.predict(x, batch_size=batch_size)
    targets = np.asarray(y, dtype=preds.dtype).reshape(preds.shape)
    return float(((preds - targets) ** 2).mean())


def steering_accuracy(network, x, y, batch_size=256):
    """``1 - MSE`` — the accuracy proxy the paper reports for DAVE models."""
    return 1.0 - mse(network, x, y, batch_size=batch_size)


class Trainer:
    """Train a :class:`~repro.nn.network.Network` with minibatch Adam.

    >>> trainer = Trainer(net, loss="cross_entropy", lr=0.001, rng=0)
    >>> history = trainer.fit(x_train, y_train, epochs=5, batch_size=64)
    """

    def __init__(self, network, loss="cross_entropy", lr=0.001, rng=None):
        self.network = network
        self.loss = get_loss(loss)
        self.optimizer = Adam(lr=lr)
        self.rng = as_rng(rng)

    def fit(self, x, y, epochs=1, batch_size=64, verbose=False):
        """Run ``epochs`` shuffled passes; returns ``{"loss": [...]}``,
        the mean minibatch loss of each epoch."""
        x = np.asarray(x, dtype=self.network.dtype)
        y = np.asarray(y)
        if x.shape[0] != y.shape[0]:
            raise ConfigError(
                f"x and y disagree on sample count: {x.shape[0]} vs {y.shape[0]}")
        params = self.network.parameters()
        history = {"loss": []}
        indices = np.arange(x.shape[0])
        # Each step's backward finishes before the next forward, so
        # every step can reuse the previous one's buffers.
        workspace = Workspace()
        for epoch in range(epochs):
            self.rng.shuffle(indices)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, x.shape[0], batch_size):
                batch_idx = indices[start:start + batch_size]
                self.optimizer.zero_grad(params)
                tape = self.network.run(x[batch_idx], training=True,
                                        workspace=workspace)
                loss_value, grad = self.loss(tape.outputs(), y[batch_idx])
                tape.gradient_of_output(grad, accumulate=True)
                self.optimizer.step(params)
                epoch_loss += loss_value
                batches += 1
            history["loss"].append(epoch_loss / max(batches, 1))
            if verbose:
                print(f"[{self.network.name}] epoch {epoch + 1}/{epochs} "
                      f"loss={history['loss'][-1]:.4f}")
        return history

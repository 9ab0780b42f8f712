"""Training losses.

Losses operate on the network's *outputs* (probabilities for classifiers,
raw values for regressors) and return ``(value, grad_wrt_outputs)``.  The
softmax lives inside the final Dense layer, so cross-entropy here receives
probabilities; the combination of its gradient with the exact softmax
backward reproduces the familiar ``p - onehot`` logit gradient.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError

__all__ = ["Loss", "CrossEntropy", "MeanSquaredError", "get_loss"]

_EPS = 1e-12


class Loss:
    """Base class: callable returning ``(scalar_loss, grad)``."""

    def __call__(self, outputs, targets):
        raise NotImplementedError


class CrossEntropy(Loss):
    """Negative log-likelihood over class probabilities.

    ``targets`` is an integer label vector of shape ``(batch,)``.
    """

    name = "cross_entropy"

    def __call__(self, probs, labels):
        labels = np.asarray(labels)
        if probs.ndim != 2:
            raise ShapeError(f"expected (batch, classes) probs, got {probs.shape}")
        if labels.shape != (probs.shape[0],):
            raise ShapeError(
                f"labels shape {labels.shape} does not match batch "
                f"{probs.shape[0]}")
        batch = probs.shape[0]
        picked = probs[np.arange(batch), labels]
        loss = float(-np.log(np.maximum(picked, _EPS)).mean())
        grad = np.zeros_like(probs)
        grad[np.arange(batch), labels] = -1.0 / (np.maximum(picked, _EPS) * batch)
        return loss, grad


class MeanSquaredError(Loss):
    """Mean squared error for regression heads."""

    name = "mse"

    def __call__(self, outputs, targets):
        targets = np.asarray(targets, dtype=outputs.dtype).reshape(outputs.shape)
        diff = outputs - targets
        loss = float((diff ** 2).mean())
        grad = 2.0 * diff / diff.size
        return loss, grad


def get_loss(spec):
    """Resolve a loss by name or pass an instance through."""
    if isinstance(spec, Loss):
        return spec
    mapping = {"cross_entropy": CrossEntropy, "mse": MeanSquaredError}
    try:
        return mapping[spec]()
    except KeyError:
        known = ", ".join(sorted(mapping))
        raise ConfigError(f"unknown loss {spec!r}; known: {known}") from None

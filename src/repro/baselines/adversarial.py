"""Adversarial-testing baseline (Goodfellow et al.'s FGSM and its
iterative variant).

The paper compares DeepXplore against "adversarial testing [26]": craft
imperceptible perturbations that flip a single model's prediction.  These
inputs expose errors but cluster near the seeds, which is why their neuron
coverage tracks random testing in Figure 9.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import run_ascent
from repro.errors import ConfigError

__all__ = ["fgsm", "iterative_fgsm", "regression_adversarial"]

_EPS = 1e-12


def _loss_gradient(network, x, labels):
    """Gradient of mean cross-entropy w.r.t. the input.

    The network outputs probabilities; ``dCE/dx = -(1/p_y) * dp_y/dx``.
    One forward pass serves both the probabilities and the gradient: the
    per-sample seed matrix selects each sample's own label column, so a
    single backward from the tape replaces the per-label sub-batches.
    """
    tape = network.run(x)
    probs = tape.outputs()
    rows = np.arange(x.shape[0])
    picked = probs[rows, labels]
    seed = np.zeros_like(probs)
    seed[rows, labels] = -1.0 / (picked + _EPS)
    return tape.gradient_of_output(seed)


def fgsm(network, x, labels, epsilon=0.1):
    """Fast Gradient Sign Method: one signed step up the loss surface."""
    return iterative_fgsm(network, x, labels, epsilon=epsilon, steps=1)


def iterative_fgsm(network, x, labels, epsilon=0.1, steps=5):
    """Basic iterative method: repeated small FGSM steps, clipped to an
    epsilon ball around the seed.

    Iterates through the repo's one ascent loop
    (:func:`repro.core.engine.run_ascent`) with the sign direction and
    an epsilon-ball projection; the vanilla rule is FGSM's update.
    """
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)

    def gradient(adv, iteration):
        return _loss_gradient(network, adv, labels)

    def project(adv_new, adv_prev):
        adv_new = np.clip(adv_new, x - epsilon, x + epsilon)
        return np.clip(adv_new, 0.0, 1.0)

    return run_ascent(x.copy(), steps, gradient, step=epsilon / steps,
                      direction=np.sign, project=project)


def regression_adversarial(network, x, targets, epsilon=0.1):
    """FGSM analogue for regressors: step along d(output)/dx away from
    the target value, increasing squared error."""
    x = np.asarray(x, dtype=np.float64)
    tape = network.run(x)
    preds = tape.outputs().reshape(-1)
    residual_sign = np.sign(preds - np.asarray(targets, dtype=np.float64))
    grad = tape.gradient_of_output(np.ones(network.output_shape))
    shape = (-1,) + (1,) * (x.ndim - 1)
    return np.clip(x + epsilon * np.sign(grad) * residual_sign.reshape(shape),
                   0.0, 1.0)

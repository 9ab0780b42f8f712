"""Parameter-update rule: Adam, which trains every zoo model."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["Adam"]

#: Adam's moment decay rates and denominator floor, at Kingma & Ba's
#: recommended values; the zoo's trainers vary only the learning rate.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba) — the workhorse for training the model zoo."""

    def __init__(self, lr=0.001):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self._state = {}
        self._t = 0

    def step(self, parameters):
        self._t += 1
        bias1 = 1.0 - _BETA1 ** self._t
        bias2 = 1.0 - _BETA2 ** self._t
        for param in parameters:
            grad = param.grad
            m, v = self._state.get(
                id(param), (np.zeros_like(param.value),
                            np.zeros_like(param.value)))
            m = _BETA1 * m + (1.0 - _BETA1) * grad
            v = _BETA2 * v + (1.0 - _BETA2) * grad * grad
            self._state[id(param)] = (m, v)
            param.value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + _EPS)

    def zero_grad(self, parameters):
        for param in parameters:
            param.zero_grad()

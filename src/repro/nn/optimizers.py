"""Parameter-update rule: Adam, which trains every zoo model."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba) — the workhorse for training the model zoo."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._state = {}
        self._t = 0

    def step(self, parameters):
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param in parameters:
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.value
            m, v = self._state.get(
                id(param), (np.zeros_like(param.value),
                            np.zeros_like(param.value)))
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self._state[id(param)] = (m, v)
            param.value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self, parameters):
        for param in parameters:
            param.zero_grad()

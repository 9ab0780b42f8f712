"""Batch normalization for 2-D (dense) and 4-D (conv) activations."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import dtypes
from repro.nn.layer import Layer
from repro.nn.parameter import Parameter

__all__ = ["BatchNorm"]


class BatchNorm(Layer):
    """Normalize per feature (2-D input) or per channel (4-D input).

    Training mode uses batch statistics and updates exponential running
    averages; inference mode uses the running averages, so the layer is a
    simple differentiable affine map during DeepXplore's gradient ascent.
    """

    def __init__(self, num_features, momentum=0.9, eps=1e-5, name=None):
        super().__init__(name=name)
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(self.num_features), f"{self.name}.gamma")
        self.beta = Parameter(np.zeros(self.num_features), f"{self.name}.beta")
        dtype = dtypes.get_default_dtype()
        self.running_mean = np.zeros(self.num_features, dtype=dtype)
        self.running_var = np.ones(self.num_features, dtype=dtype)

    def _reshape_stats(self, stat, ndim):
        if ndim == 2:
            return stat[None, :]
        return stat[None, :, None, None]

    def forward(self, x, training=False, workspace=None):
        if x.ndim not in (2, 4) or x.shape[1] != self.num_features:
            raise ShapeError(
                f"{self.name}: expected {self.num_features} features/channels, "
                f"got shape {x.shape}")
        axes = (0,) if x.ndim == 2 else (0, 2, 3)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            count = x.shape[0] if x.ndim == 2 else x.shape[0] * x.shape[2] * x.shape[3]
            self.running_mean *= self.momentum
            self.running_mean += (1.0 - self.momentum) * mean
            # Unbiased variance for the running estimate, biased in-batch.
            unbiased = var * count / max(count - 1, 1)
            self.running_var *= self.momentum
            self.running_var += (1.0 - self.momentum) * unbiased
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._reshape_stats(mean, x.ndim)) * \
            self._reshape_stats(inv_std, x.ndim)
        out = self._reshape_stats(self.gamma.value, x.ndim) * x_hat + \
            self._reshape_stats(self.beta.value, x.ndim)
        return out, (x_hat, inv_std, axes, training, x.ndim)

    def backward(self, ctx, grad_out, accumulate=True):
        x_hat, inv_std, axes, training, ndim = ctx
        if accumulate:
            self.gamma.grad += (grad_out * x_hat).sum(axis=axes)
            self.beta.grad += grad_out.sum(axis=axes)
        gamma = self._reshape_stats(self.gamma.value, ndim)
        inv = self._reshape_stats(inv_std, ndim)
        grad_xhat = grad_out * gamma
        if not training:
            # Inference statistics are constants w.r.t. the input.
            return grad_xhat * inv
        count = np.prod([grad_out.shape[a] for a in axes])
        mean_g = grad_xhat.mean(axis=axes, keepdims=True)
        mean_gx = (grad_xhat * x_hat).mean(axis=axes, keepdims=True)
        return inv * (grad_xhat - mean_g - x_hat * mean_gx)

    def parameters(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return {
            f"{self.name}.running_mean": self.running_mean,
            f"{self.name}.running_var": self.running_var,
        }

    def output_shape(self, input_shape):
        return tuple(input_shape)

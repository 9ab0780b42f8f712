"""Fully connected layer with built-in activation."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.activations import get_activation
from repro.nn.initializers import get_initializer
from repro.nn.layer import Layer
from repro.nn.parameter import Parameter
from repro.utils.rng import as_rng

__all__ = ["Dense"]


class Dense(Layer):
    """``y = act(x @ W + b)`` for 2-D inputs ``(batch, in_features)``.

    The activation lives inside the layer (Keras convention) so that
    coverage instruments post-activation values, matching how the paper
    counts neurons.
    """

    exposes_neurons = True

    def __init__(self, in_features, out_features, activation="relu",
                 initializer="glorot_uniform", rng=None, name=None):
        super().__init__(name=name)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.activation = get_activation(activation)
        rng = as_rng(rng)
        init = get_initializer(initializer)
        weight = init((self.out_features, self.in_features),
                      fan_in=self.in_features, fan_out=self.out_features,
                      rng=rng)
        self.weight = Parameter(weight, f"{self.name}.weight")
        self.bias = Parameter(np.zeros(self.out_features), f"{self.name}.bias")

    def forward(self, x, training=False, *, workspace):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected (batch, {self.in_features}), got {x.shape}")
        z = workspace.get((id(self), "z"), (x.shape[0], self.out_features),
                          x.dtype)
        np.matmul(x, self.weight.value.T, out=z)
        z += self.bias.value
        if self.activation.needs_preactivation:
            a = self.activation.forward(z)
            return a, (x, z, a, workspace)
        a = self.activation.forward_into(z, z)
        return a, (x, None, a, workspace)

    def backward(self, ctx, grad_out, accumulate=True):
        x, z, a, workspace = ctx
        grad_z = self.activation.backward(grad_out, z, a)
        if accumulate:
            self.weight.grad += grad_z.T @ x
            self.bias.grad += grad_z.sum(axis=0)
        grad_x = workspace.get((id(self), "gx"), x.shape, grad_z.dtype)
        return np.matmul(grad_z, self.weight.value, out=grad_x)

    def parameters(self):
        return [self.weight, self.bias]

    def output_shape(self, input_shape):
        return (self.out_features,)

    def neuron_count(self, input_shape):
        return self.out_features

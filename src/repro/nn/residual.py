"""Residual block for the mini-ResNet in the model zoo."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.activations import Relu
from repro.nn.layer import Layer

__all__ = ["Residual"]


class Residual(Layer):
    """``y = relu(body(x) + shortcut(x))``.

    ``body`` is a list of layers; ``shortcut`` is an optional list used as a
    projection when the body changes shape (1x1 conv in ResNet), otherwise
    the identity.  For coverage purposes the block exposes one neuron per
    output channel (spatial mean after the post-add ReLU); internal layers
    are treated as plumbing, which keeps the neuron table flat while still
    counting every feature map the block produces.
    """

    exposes_neurons = True

    def __init__(self, body, shortcut=None, name=None):
        super().__init__(name=name)
        self.body = list(body)
        self.shortcut = list(shortcut) if shortcut else []
        self.activation = Relu()

    def forward(self, x, training=False, *, workspace):
        out = x
        body_ctxs = []
        for layer in self.body:
            out, ctx = layer.forward(out, training=training,
                                     workspace=workspace)
            body_ctxs.append(ctx)
        skip = x
        shortcut_ctxs = []
        for layer in self.shortcut:
            skip, ctx = layer.forward(skip, training=training,
                                      workspace=workspace)
            shortcut_ctxs.append(ctx)
        if out.shape != skip.shape:
            raise ShapeError(
                f"{self.name}: body output {out.shape} does not match "
                f"shortcut output {skip.shape}; add a projection shortcut")
        z = out + skip
        if self.activation.needs_preactivation:
            a = self.activation.forward(z)
            return a, (tuple(body_ctxs), tuple(shortcut_ctxs), z, a)
        a = self.activation.forward_into(z, z)
        return a, (tuple(body_ctxs), tuple(shortcut_ctxs), None, a)

    def backward(self, ctx, grad_out, accumulate=True):
        body_ctxs, shortcut_ctxs, z, a = ctx
        grad_z = self.activation.backward(grad_out, z, a)
        grad_body = grad_z
        for layer, layer_ctx in zip(reversed(self.body),
                                    reversed(body_ctxs)):
            grad_body = layer.backward(layer_ctx, grad_body,
                                       accumulate=accumulate)
        grad_skip = grad_z
        for layer, layer_ctx in zip(reversed(self.shortcut),
                                    reversed(shortcut_ctxs)):
            grad_skip = layer.backward(layer_ctx, grad_skip,
                                       accumulate=accumulate)
        return grad_body + grad_skip

    def parameters(self):
        params = []
        for layer in self.body + self.shortcut:
            params.extend(layer.parameters())
        return params

    def buffers(self):
        buffers = {}
        for layer in self.body + self.shortcut:
            buffers.update(layer.buffers())
        return buffers

    def output_shape(self, input_shape):
        shape = tuple(input_shape)
        for layer in self.body:
            shape = layer.output_shape(shape)
        skip_shape = tuple(input_shape)
        for layer in self.shortcut:
            skip_shape = layer.output_shape(skip_shape)
        if shape != skip_shape:
            raise ShapeError(
                f"{self.name}: body shape {shape} != shortcut {skip_shape}")
        return shape

    def neuron_count(self, input_shape):
        return self.output_shape(input_shape)[0]

    def neuron_outputs(self, output):
        return output.mean(axis=(2, 3))

    def neuron_seed(self, output_shape, neuron_index, dtype=np.float64):
        channels, h, w = output_shape
        seed = np.zeros(output_shape, dtype=dtype)
        seed[neuron_index] = 1.0 / (h * w)
        return seed

"""Finite-difference gradient checking helpers shared by the nn tests."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import Workspace

__all__ = ["numeric_input_gradient", "check_layer_gradients",
           "neuron_value", "apply", "gradient_of_class"]


def apply(layer, x, training=False):
    """``layer``'s output for ``x``, from a pass with its own workspace
    (so the output stays valid after later passes)."""
    out, _ = layer.forward(x, training=training, workspace=Workspace())
    return out


def gradient_of_class(tape, class_index):
    """Gradient of ``output[:, class_index]`` of a recorded
    :class:`~repro.nn.tape.ForwardPass` with respect to its input."""
    network = tape.network
    if network.output_shape != (int(np.prod(network.output_shape)),):
        raise ShapeError(
            f"{network.name}: class gradients need a flat output, "
            f"got {network.output_shape}")
    seed = np.zeros(network.output_shape, dtype=tape.dtype)
    seed[class_index] = 1.0
    return tape.gradient_of_output(seed)


def neuron_value(tape, flat_neuron_index):
    """One neuron's scalar output per batch element of a recorded
    :class:`~repro.nn.tape.ForwardPass`: the value whose finite
    differences the neuron-gradient checks compare against.

    Only the owning layer's neuron outputs are computed and the
    requested column sliced out.
    """
    entry, local = tape.network.neuron_layer_of(flat_neuron_index)
    layer = tape.network.layers[entry.layer_index]
    return layer.neuron_outputs(
        tape._layer_outputs[entry.layer_index])[:, local]


def numeric_input_gradient(func, x, indices, eps=1e-6):
    """Central-difference derivative of scalar ``func(x)`` at ``indices``."""
    grads = {}
    for idx in indices:
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grads[idx] = (func(xp) - func(xm)) / (2.0 * eps)
    return grads


def check_layer_gradients(layer, x, rng, atol=1e-7, n_probe=6,
                          training=False):
    """Verify a layer's input and parameter gradients against numerics.

    Uses a random linear functional of the layer output as the scalar
    loss: ``L = sum(W * layer(x))``.  Probes ``n_probe`` random input
    coordinates and parameter coordinates.
    """
    out, _ = layer.forward(x, training=training, workspace=Workspace())
    weights = rng.normal(size=out.shape)

    def loss_of_input(x_probe):
        return float((apply(layer, x_probe, training=training)
                      * weights).sum())

    # Analytic pass: forward (returning ctx) then backward with
    # dL/dout = weights.
    for param in layer.parameters():
        param.zero_grad()
    _, ctx = layer.forward(x, training=training, workspace=Workspace())
    grad_in = layer.backward(ctx, weights)

    flat_indices = [tuple(rng.integers(0, s) for s in x.shape)
                    for _ in range(n_probe)]
    numeric = numeric_input_gradient(loss_of_input, x, flat_indices)
    for idx, num in numeric.items():
        assert abs(grad_in[idx] - num) < atol, (
            f"input grad mismatch at {idx}: {grad_in[idx]} vs {num}")

    for param in layer.parameters():
        value = param.value

        def loss_of_param(probe, param=param, original=value.copy()):
            param.value[...] = probe
            try:
                return loss_of_input(x)
            finally:
                param.value[...] = original

        probes = [tuple(rng.integers(0, s) for s in value.shape)
                  for _ in range(min(n_probe, value.size))]
        numeric = numeric_input_gradient(loss_of_param, value.copy(), probes)
        for idx, num in numeric.items():
            assert abs(param.grad[idx] - num) < atol, (
                f"{param.name} grad mismatch at {idx}: "
                f"{param.grad[idx]} vs {num}")

"""Residual block: identity/projection paths, gradients, neuron exposure."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import BatchNorm, Conv2D, Residual

from tests.nn.gradcheck import apply, check_layer_gradients


def _block(rng, channels=3):
    body = [
        Conv2D(channels, channels, 3, padding=1, rng=rng, name="b1"),
        Conv2D(channels, channels, 3, padding=1, activation="linear",
               rng=rng, name="b2"),
    ]
    return Residual(body, name="res")


def test_identity_shortcut_addition():
    rng = np.random.default_rng(0)
    block = _block(rng)
    # Zero the body weights: output must be relu(x).
    for param in block.parameters():
        param.value[:] = 0.0
    x = rng.normal(size=(2, 3, 4, 4))
    np.testing.assert_allclose(apply(block, x), np.maximum(x, 0.0))


def test_projection_shortcut():
    rng = np.random.default_rng(1)
    body = [Conv2D(2, 4, 3, padding=1, activation="linear", rng=rng)]
    projection = [Conv2D(2, 4, 1, activation="linear", rng=rng)]
    block = Residual(body, shortcut=projection)
    x = rng.normal(size=(1, 2, 4, 4))
    assert apply(block, x).shape == (1, 4, 4, 4)
    assert block.output_shape((2, 4, 4)) == (4, 4, 4)


def test_shape_mismatch_raises():
    rng = np.random.default_rng(2)
    body = [Conv2D(2, 4, 3, padding=1, rng=rng)]
    block = Residual(body)
    with pytest.raises(ShapeError):
        apply(block, np.zeros((1, 2, 4, 4)))
    with pytest.raises(ShapeError):
        block.output_shape((2, 4, 4))


def test_gradients_through_block():
    rng = np.random.default_rng(3)
    block = _block(rng)
    check_layer_gradients(block, rng.normal(size=(2, 3, 5, 5)), rng,
                          atol=1e-6)


def test_gradients_with_batchnorm_inference():
    rng = np.random.default_rng(4)
    body = [Conv2D(2, 2, 3, padding=1, rng=rng),
            BatchNorm(2, name="bn"),
            Conv2D(2, 2, 3, padding=1, activation="linear", rng=rng)]
    block = Residual(body)
    block.body[1].running_mean[:] = rng.normal(size=2)
    block.body[1].running_var[:] = rng.uniform(0.5, 2.0, size=2)
    check_layer_gradients(block, rng.normal(size=(2, 2, 4, 4)), rng,
                          atol=1e-6, training=False)


def test_parameters_and_buffers_collected():
    rng = np.random.default_rng(5)
    body = [Conv2D(2, 2, 3, padding=1, rng=rng), BatchNorm(2, name="bn")]
    projection = [Conv2D(2, 2, 1, rng=rng, name="proj")]
    block = Residual(body, shortcut=projection)
    assert len(block.parameters()) == 2 + 2 + 2  # conv w/b, bn g/b, proj w/b
    assert "bn.running_mean" in block.buffers()


def test_neuron_exposure_spatial_mean():
    rng = np.random.default_rng(6)
    block = _block(rng)
    assert block.neuron_count((3, 4, 4)) == 3
    x = rng.normal(size=(2, 3, 4, 4))
    out = apply(block, x)
    np.testing.assert_allclose(block.neuron_outputs(out),
                               out.mean(axis=(2, 3)))
    seed = block.neuron_seed((3, 4, 4), 2)
    np.testing.assert_allclose((seed[None] * out).sum(axis=(1, 2, 3)),
                               out.mean(axis=(2, 3))[:, 2])

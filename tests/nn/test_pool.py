"""Pooling layers: values, gradients, shape validation."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import AvgPool2D, GlobalAvgPool2D, MaxPool2D, Workspace

from tests.nn.gradcheck import apply, check_layer_gradients


def test_maxpool_values():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = apply(MaxPool2D(2), x)
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_backward_routes_to_argmax():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    layer = MaxPool2D(2)
    _, ctx = layer.forward(x, workspace=Workspace())
    grad = layer.backward(ctx, np.ones((1, 1, 2, 2)))
    expected = np.zeros((1, 1, 4, 4))
    for i, j in [(1, 1), (1, 3), (3, 1), (3, 3)]:
        expected[0, 0, i, j] = 1.0
    np.testing.assert_array_equal(grad, expected)


def test_avgpool_values_and_gradcheck():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 4, 4))
    layer = AvgPool2D(2)
    out = apply(layer, x)
    np.testing.assert_allclose(
        out, x.reshape(2, 3, 2, 2, 2, 2).mean(axis=(3, 5)))
    check_layer_gradients(layer, x, rng)


def test_maxpool_gradcheck():
    rng = np.random.default_rng(1)
    # Continuous random values: ties have probability zero.
    check_layer_gradients(MaxPool2D(2), rng.normal(size=(2, 2, 6, 6)), rng)


def test_global_avgpool():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 4, 5, 5))
    layer = GlobalAvgPool2D()
    out = apply(layer, x)
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)))
    check_layer_gradients(layer, x, rng)
    assert layer.output_shape((4, 5, 5)) == (4,)


def test_pool_divisibility_enforced():
    with pytest.raises(ShapeError):
        apply(MaxPool2D(2), np.zeros((1, 1, 5, 4)))
    with pytest.raises(ShapeError):
        AvgPool2D(3).output_shape((1, 4, 4))


def test_nonsquare_pool():
    x = np.arange(8, dtype=float).reshape(1, 1, 2, 4)
    out = apply(MaxPool2D((2, 4)), x)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 7.0

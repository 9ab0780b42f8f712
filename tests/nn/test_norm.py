"""BatchNorm: statistics, modes, gradient checks."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import BatchNorm

from tests.nn.gradcheck import apply, check_layer_gradients


def test_training_normalizes_batch():
    rng = np.random.default_rng(0)
    layer = BatchNorm(4)
    x = rng.normal(loc=3.0, scale=2.0, size=(64, 4))
    out = apply(layer, x, training=True)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)


def test_running_stats_converge():
    rng = np.random.default_rng(1)
    layer = BatchNorm(2, momentum=0.5)
    for _ in range(30):
        apply(layer, rng.normal(loc=5.0, size=(128, 2)), training=True)
    np.testing.assert_allclose(layer.running_mean, 5.0, atol=0.2)
    np.testing.assert_allclose(layer.running_var, 1.0, atol=0.2)


def test_inference_uses_running_stats():
    layer = BatchNorm(2)
    layer.running_mean[:] = [1.0, -1.0]
    layer.running_var[:] = [4.0, 0.25]
    x = np.array([[3.0, 0.0]])
    out = apply(layer, x, training=False)
    np.testing.assert_allclose(out, [[1.0, 2.0]], atol=1e-4)


def test_conv_mode_normalizes_per_channel():
    rng = np.random.default_rng(2)
    layer = BatchNorm(3)
    x = rng.normal(loc=2.0, size=(16, 3, 5, 5))
    out = apply(layer, x, training=True)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape", [(8, 3), (4, 3, 4, 4)])
def test_gradients(training, shape):
    rng = np.random.default_rng(3)
    layer = BatchNorm(3)
    # Give gamma/beta non-trivial values so their gradients are exercised.
    layer.gamma.value[:] = rng.uniform(0.5, 1.5, size=3)
    layer.beta.value[:] = rng.normal(size=3)
    layer.running_mean[:] = rng.normal(size=3)
    layer.running_var[:] = rng.uniform(0.5, 2.0, size=3)
    x = rng.normal(size=shape)
    check_layer_gradients(layer, x, rng, atol=1e-6, training=training)


def test_buffers_serialized():
    layer = BatchNorm(2, name="bn")
    buffers = layer.buffers()
    assert set(buffers) == {"bn.running_mean", "bn.running_var"}
    buffers["bn.running_mean"][:] = 7.0
    assert layer.running_mean[0] == 7.0  # same array, not a copy


def test_rejects_wrong_features():
    with pytest.raises(ShapeError):
        apply(BatchNorm(3), np.zeros((2, 4)))

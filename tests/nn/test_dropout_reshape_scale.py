"""Dropout, Flatten, and FixedScale layers."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.nn import Dropout, FixedScale, Flatten

from tests.nn.gradcheck import apply, check_layer_gradients


class TestDropout:
    def test_identity_at_inference(self):
        rng = np.random.default_rng(0)
        layer = Dropout(0.5, rng=rng)
        x = rng.normal(size=(4, 10))
        np.testing.assert_array_equal(apply(layer, x, training=False), x)

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(1)
        layer = Dropout(0.3, rng=rng)
        x = np.ones((200, 50))
        out = apply(layer, x, training=True)
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7)
        assert abs(out.mean() - 1.0) < 0.05

    def test_backward_uses_same_mask(self):
        rng = np.random.default_rng(2)
        layer = Dropout(0.5, rng=rng)
        x = np.ones((3, 8))
        out, ctx = layer.forward(x, training=True)
        grad = layer.backward(ctx, np.ones_like(x))
        np.testing.assert_array_equal(grad == 0.0, out == 0.0)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            Dropout(1.0)
        with pytest.raises(ConfigError):
            Dropout(-0.1)

    def test_zero_rate_is_identity_even_training(self):
        x = np.ones((2, 3))
        layer = Dropout(0.0)
        np.testing.assert_array_equal(apply(layer, x, training=True), x)


class TestFlatten:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 5))
        layer = Flatten()
        out, ctx = layer.forward(x)
        assert out.shape == (2, 60)
        grad = layer.backward(ctx, out)
        np.testing.assert_array_equal(grad, x)

    def test_output_shape(self):
        assert Flatten().output_shape((3, 4, 5)) == (60,)

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        check_layer_gradients(Flatten(), rng.normal(size=(2, 3, 4, 4)), rng)


class TestFixedScale:
    def test_standardizes(self):
        rng = np.random.default_rng(5)
        x = rng.normal(loc=10.0, scale=3.0, size=(500, 4))
        layer = FixedScale.from_data(x)
        out = apply(layer, x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_passthrough(self):
        x = np.ones((10, 2))
        x[:, 1] = np.arange(10)
        layer = FixedScale.from_data(x)
        out = apply(layer, x)
        # Constant feature: std 0 is replaced by 1, no division blowup.
        np.testing.assert_allclose(out[:, 0], 0.0)
        assert np.all(np.isfinite(out))

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        layer = FixedScale(rng.normal(size=5), rng.uniform(0.5, 2.0, size=5))
        check_layer_gradients(layer, rng.normal(size=(3, 5)), rng)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            FixedScale(np.zeros(3), np.ones(4))
        layer = FixedScale(np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError):
            apply(layer, np.zeros((2, 4)))

    def test_buffers(self):
        layer = FixedScale(np.zeros(2), np.ones(2), name="std")
        assert set(layer.buffers()) == {"std.mean", "std.std"}

"""Losses and optimizers."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.nn import (Adam, CrossEntropy, Dense, MeanSquaredError, Network,
                      Parameter, Trainer, get_loss)


class TestCrossEntropy:
    def test_value_and_gradient(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        labels = np.array([0, 1])
        loss, grad = CrossEntropy()(probs, labels)
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        assert abs(loss - expected) < 1e-12
        assert grad[0, 0] == pytest.approx(-1 / (0.7 * 2))
        assert grad[0, 1] == 0.0

    def test_numeric_gradient(self):
        rng = np.random.default_rng(0)
        logits = rng.random((3, 4)) + 0.1
        probs = logits / logits.sum(axis=1, keepdims=True)
        labels = np.array([1, 3, 0])
        loss_fn = CrossEntropy()
        _, grad = loss_fn(probs, labels)
        eps = 1e-7
        for idx in [(0, 1), (1, 3), (2, 0), (0, 2)]:
            pp = probs.copy(); pp[idx] += eps
            pm = probs.copy(); pm[idx] -= eps
            numeric = (loss_fn(pp, labels)[0] - loss_fn(pm, labels)[0]) / (2 * eps)
            assert abs(grad[idx] - numeric) < 1e-5

    def test_clips_zero_probability(self):
        probs = np.array([[0.0, 1.0]])
        loss, grad = CrossEntropy()(probs, np.array([0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            CrossEntropy()(np.zeros((2, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ShapeError):
            CrossEntropy()(np.zeros(3), np.zeros(3, dtype=int))


class TestMSE:
    def test_value_and_gradient(self):
        out = np.array([[1.0], [2.0]])
        target = np.array([0.0, 0.0])
        loss, grad = MeanSquaredError()(out, target)
        assert loss == pytest.approx(2.5)
        np.testing.assert_allclose(grad, [[1.0], [2.0]])

    def test_zero_at_perfect_fit(self):
        out = np.array([[1.5], [-0.5]])
        loss, grad = MeanSquaredError()(out, out.ravel())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)


class TestOptimizers:
    def _quadratic_descent(self, optimizer, steps=200):
        """Minimize f(w) = |w|^2 — every optimizer must converge."""
        param = Parameter(np.array([5.0, -3.0]), "w")
        for _ in range(steps):
            param.zero_grad()
            param.grad += 2.0 * param.value
            optimizer.step([param])
        return np.abs(param.value).max()

    def test_adam_converges(self):
        assert self._quadratic_descent(Adam(lr=0.3)) < 1e-3

    def test_invalid_lr(self):
        with pytest.raises(ConfigError):
            Adam(lr=0.0)
        with pytest.raises(ConfigError):
            Adam(lr=-1.0)

    def test_zero_grad_helper(self):
        param = Parameter(np.ones(3), "w")
        param.grad += 5.0
        Adam(lr=0.1).zero_grad([param])
        assert np.all(param.grad == 0.0)


def test_loss_and_optimizer_lookup():
    assert isinstance(get_loss("cross_entropy"), CrossEntropy)
    assert isinstance(get_loss("mse"), MeanSquaredError)
    mse = MeanSquaredError()
    assert get_loss(mse) is mse
    with pytest.raises(ConfigError, match="unknown loss 'hinge'"):
        get_loss("hinge")
    trainer = Trainer(Network([Dense(2, 2, rng=0)], (2,)), loss="mse",
                      lr=0.01)
    assert isinstance(trainer.loss, MeanSquaredError)
    assert isinstance(trainer.optimizer, Adam)
    assert trainer.optimizer.lr == 0.01

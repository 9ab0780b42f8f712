"""Unit and property tests for activation functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigError
from repro.nn.activations import (Atan, Linear, Relu, Softmax,
                                  get_activation)

_ALL = [Linear(), Relu(), Atan(), Softmax()]

finite_arrays = arrays(np.float64, (3, 5),
                       elements=st.floats(-20, 20, allow_nan=False))


def _numeric_backward(act, z, grad, eps=1e-6):
    out = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp = z.copy()
        zp[idx] += eps
        zm = z.copy()
        zm[idx] -= eps
        out[idx] = ((act.forward(zp) - act.forward(zm)) * grad).sum() / (2 * eps)
    return out


@pytest.mark.parametrize("act", _ALL, ids=lambda a: a.name)
def test_backward_matches_numeric(act):
    rng = np.random.default_rng(0)
    z = rng.normal(size=(2, 4))
    # Keep ReLU away from its nondifferentiable kink.
    z[np.abs(z) < 1e-3] = 0.5
    grad = rng.normal(size=z.shape)
    a = act.forward(z)
    analytic = act.backward(grad, z, a)
    numeric = _numeric_backward(act, z, grad)
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)


def test_relu_clamps_negatives():
    z = np.array([[-1.0, 0.0, 2.5]])
    np.testing.assert_array_equal(Relu().forward(z), [[0.0, 0.0, 2.5]])


@given(finite_arrays)
@settings(max_examples=25, deadline=None)
def test_softmax_is_a_distribution(z):
    probs = Softmax().forward(z)
    assert np.all(probs >= 0.0)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    z = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(Softmax().forward(z),
                               Softmax().forward(z + 1000.0), atol=1e-12)


def test_atan_bounds():
    out = Atan().forward(np.array([[-1e6, 0.0, 1e6]]))
    assert np.all(np.abs(out) < np.pi / 2)
    assert out[0, 1] == 0.0


def test_get_activation_by_name_and_instance():
    assert isinstance(get_activation("relu"), Relu)
    assert isinstance(get_activation(None), Linear)
    relu = Relu()
    assert get_activation(relu) is relu


def test_get_activation_unknown_raises():
    with pytest.raises(ConfigError):
        get_activation("swish9000")

"""The dtype policy: resolution stack, end-to-end threading, and the
payload round-trip that derives float32 copies of float64 zoo models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.core import resolve_models
from repro.nn import (BatchNorm, Conv2D, Dense, FixedScale, Flatten, Network,
                      dtypes)
from repro.nn.config import (network_from_config, network_from_payload,
                             network_to_config, network_to_payload)
from tests.nn.gradcheck import gradient_of_class


def _net(name="dtype_net"):
    rng = np.random.default_rng(3)
    return Network([
        Conv2D(1, 2, 3, padding=1, rng=rng, name="c"),
        Flatten(name="f"),
        Dense(2 * 4 * 4, 3, activation="softmax", rng=rng, name="out"),
    ], input_shape=(1, 4, 4), name=name)


def test_policy_stack_and_resolution():
    assert dtypes.DEFAULT_DTYPE == np.dtype(np.float32)
    base = dtypes.get_default_dtype()
    with dtypes.default_dtype(np.float64):
        assert dtypes.get_default_dtype() == np.dtype(np.float64)
        assert dtypes.resolve(None) == np.dtype(np.float64)
        with dtypes.default_dtype("float32"):
            assert dtypes.resolve(None) == np.dtype(np.float32)
        assert dtypes.get_default_dtype() == np.dtype(np.float64)
    assert dtypes.get_default_dtype() == base
    assert dtypes.resolve("float32") == np.dtype(np.float32)
    with pytest.raises(ConfigError):
        dtypes.resolve(np.int32)


def test_network_built_under_policy_runs_at_that_dtype():
    for dtype in ("float32", "float64"):
        with dtypes.default_dtype(dtype):
            net = _net()
        assert net.dtype == np.dtype(dtype)
        x = np.random.default_rng(0).random((2, 1, 4, 4))  # float64 input
        tape = net.run(x)
        assert tape.x.dtype == np.dtype(dtype)
        assert tape.outputs().dtype == np.dtype(dtype)
        assert gradient_of_class(tape, 0).dtype == np.dtype(dtype)
        assert net.neuron_activations(x).dtype == np.dtype(dtype)


def test_cast_converts_parameters_buffers_and_gradients():
    """``resolve_models`` converts through the payload round trip:
    parameters, their gradients and every buffer (batch-norm running
    stats) come back at the new dtype, and the original is untouched."""
    rng = np.random.default_rng(4)
    with dtypes.default_dtype(np.float64):
        net = Network([
            FixedScale(np.full(6, 0.5), np.full(6, 2.0), name="scale"),
            Dense(6, 4, rng=rng, name="h"),
            BatchNorm(4, name="bn"),
            Dense(4, 3, activation="softmax", rng=rng, name="out"),
        ], input_shape=(6,), name="cast_net")
    converted, = resolve_models([net], dtype=np.float32)
    assert converted.dtype == np.dtype(np.float32)
    for param in converted.parameters():
        assert param.value.dtype == np.dtype(np.float32)
        assert param.grad.dtype == np.dtype(np.float32)
    assert converted.buffers()
    for buf in converted.buffers().values():
        assert buf.dtype == np.dtype(np.float32)
    scale = converted.layers[0]
    assert scale.mean.dtype == scale.std.dtype == np.dtype(np.float32)
    assert converted.predict(np.zeros((1, 6))).dtype == np.dtype(np.float32)
    assert net.dtype == np.dtype(np.float64)
    assert all(p.value.dtype == np.dtype(np.float64)
               for p in net.parameters())


def test_payload_round_trip_preserves_and_converts_dtype():
    with dtypes.default_dtype(np.float64):
        net = _net()
    payload = network_to_payload(net)
    assert payload["config"]["dtype"] == "float64"

    same = network_from_payload(payload)
    assert same.dtype == np.dtype(np.float64)
    x = np.random.default_rng(1).random((2, 1, 4, 4))
    np.testing.assert_array_equal(same.predict(x), net.predict(x))

    low = network_from_payload(payload, dtype=np.float32)
    assert low.dtype == np.dtype(np.float32)
    np.testing.assert_allclose(low.predict(x), net.predict(x),
                               rtol=1e-5, atol=1e-6)


def test_legacy_config_without_dtype_defaults_to_float64():
    with dtypes.default_dtype(np.float64):
        net = _net()
    config = network_to_config(net)
    config.pop("dtype")
    # Rebuild under a float32 ambient default: the legacy payload must
    # still come back as the float64 it was captured at.
    with dtypes.default_dtype(np.float32):
        rebuilt = network_from_config(config)
    assert rebuilt.dtype == np.dtype(np.float64)


def test_mixed_dtype_models_refused_by_engine():
    from repro.core import AscentEngine, Hyperparams, Unconstrained
    with dtypes.default_dtype(np.float64):
        a = _net("a")
    with dtypes.default_dtype(np.float32):
        b = _net("b")
    with pytest.raises(ConfigError, match="dtype"):
        AscentEngine([a, b], Hyperparams(), Unconstrained(),
                     task="classification", rng=0)

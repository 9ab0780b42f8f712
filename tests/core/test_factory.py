"""Engines over ``resolve_models``' output and ``resolve_models`` itself."""

import numpy as np
import pytest

from repro.core import (AscentEngine, Hyperparams, Unconstrained,
                        resolve_models)
from repro.nn import Conv2D, Dense, Flatten, Network, dtypes


def _net(name, seed):
    rng = np.random.default_rng(seed)
    return Network([
        Conv2D(1, 2, 3, padding=1, rng=rng, name="c"),
        Flatten(name="f"),
        Dense(2 * 4 * 4, 4, activation="softmax", rng=rng, name="out"),
    ], input_shape=(1, 4, 4), name=name)


@pytest.fixture
def models():
    with dtypes.default_dtype(np.float64):
        return [_net("m0", 0), _net("m1", 1)]


def test_make_engine_with_dtype_end_to_end(models):
    hp = Hyperparams(lambda1=1.0, lambda2=0.1, step=0.05, max_iterations=5)
    engine = AscentEngine(resolve_models(models, dtype="float32"), hp,
                          Unconstrained(), task="classification", rng=0)
    assert engine.dtype == np.dtype(np.float32)
    result = engine.run(np.random.default_rng(2).random((4, 1, 4, 4)))
    assert result.seeds_processed == 4
    for test in result.tests:
        assert test.x.dtype == np.dtype(np.float32)


def test_resolve_models_converts_without_mutating(models):
    resolved = resolve_models(models, dtype=np.float32)
    assert all(m.dtype == np.dtype(np.float64) for m in models)
    assert all(r.dtype == np.dtype(np.float32) for r in resolved)
    x = np.random.default_rng(3).random((2, 1, 4, 4))
    for model, converted in zip(models, resolved):
        np.testing.assert_allclose(converted.predict(x), model.predict(x),
                                   atol=1e-5)
    # No dtype requested, or the models' own: the same objects, no copies.
    for same in (resolve_models(models),
                 resolve_models(models, dtype="float64")):
        assert list(map(id, same)) == list(map(id, models))

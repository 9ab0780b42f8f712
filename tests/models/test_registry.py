"""Model registry: zoo structure, caching, accuracy floors."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import (MODEL_ZOO, TRIOS, get_model, get_trio,
                          model_accuracy, zoo_names)
from repro.nn import network_from_payload, network_to_payload


def test_zoo_has_fifteen_models():
    assert len(zoo_names()) == 15
    assert set(MODEL_ZOO) == set(zoo_names())


def test_trios_cover_all_datasets():
    assert set(TRIOS) == {"mnist", "imagenet", "driving", "pdf", "drebin"}
    for trio in TRIOS.values():
        assert len(trio) == 3


def test_unknown_model_rejected():
    with pytest.raises(ConfigError):
        get_model("MNI_C9")
    with pytest.raises(ConfigError):
        get_trio("cifar")


def test_cached_model_deterministic(mnist_smoke):
    a = get_model("MNI_C1", scale="smoke", seed=0, dataset=mnist_smoke)
    b = get_model("MNI_C1", scale="smoke", seed=0, dataset=mnist_smoke)
    x = mnist_smoke.x_test[:4]
    np.testing.assert_array_equal(a.predict(x), b.predict(x))


def test_model_payload_rebuilds_trained_model(mnist_smoke):
    original = get_model("MNI_C1", scale="smoke", seed=0,
                         dataset=mnist_smoke)
    rebuilt = network_from_payload(network_to_payload(
        get_model("MNI_C1", scale="smoke", seed=0, dataset=mnist_smoke)))
    x = mnist_smoke.x_test[:4]
    np.testing.assert_array_equal(rebuilt.predict(x), original.predict(x))


def test_trio_models_differ(mnist_trio, mnist_smoke):
    """Independently initialized models must not be identical — the
    premise of differential testing."""
    x = mnist_smoke.x_test[:16]
    p1, p2, p3 = (m.predict(x) for m in mnist_trio)
    assert not np.allclose(p1, p2)
    assert not np.allclose(p2, p3)


def test_smoke_models_learn_something(mnist_trio, mnist_smoke):
    for model in mnist_trio:
        acc = model_accuracy(model, mnist_smoke)
        assert acc > 0.5, f"{model.name} barely above chance: {acc}"


def test_driving_models_fit(driving_trio, driving_smoke):
    for model in driving_trio:
        assert model_accuracy(model, driving_smoke) > 0.85  # 1-MSE


def test_malware_models_accurate(pdf_trio, pdf_smoke, drebin_trio,
                                 drebin_smoke):
    for model in pdf_trio:
        assert model_accuracy(model, pdf_smoke) > 0.85
    for model in drebin_trio:
        assert model_accuracy(model, drebin_smoke) > 0.85


def test_model_names_match_zoo(mnist_trio):
    assert [m.name for m in mnist_trio] == ["MNI_C1", "MNI_C2", "MNI_C3"]

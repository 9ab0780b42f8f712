"""Random and adversarial baselines."""

import numpy as np
import pytest

from repro.baselines import (fgsm, iterative_fgsm, random_inputs,
                             regression_adversarial)
from repro.errors import ConfigError


def test_random_inputs_from_test_split(mnist_smoke):
    x, y = random_inputs(mnist_smoke, 10, rng=0)
    assert x.shape == (10, 1, 28, 28)
    assert y.shape == (10,)
    with pytest.raises(ConfigError):
        random_inputs(mnist_smoke, 0)


def test_fgsm_stays_in_pixel_range(lenet1, mnist_smoke):
    x, y = mnist_smoke.sample_seeds(8, np.random.default_rng(1))
    adv = fgsm(lenet1, x, y, epsilon=0.15)
    assert adv.min() >= 0.0 and adv.max() <= 1.0
    assert np.abs(adv - x).max() <= 0.15 + 1e-12


def test_fgsm_increases_loss(lenet1, mnist_smoke):
    x, y = mnist_smoke.sample_seeds(20, np.random.default_rng(2))
    adv = fgsm(lenet1, x, y, epsilon=0.2)
    idx = np.arange(x.shape[0])
    before = lenet1.predict(x)[idx, y]
    after = lenet1.predict(adv)[idx, y]
    # True-class probability must drop on average — the attack works.
    assert after.mean() < before.mean()


def test_fgsm_epsilon_validation(lenet1, mnist_smoke):
    x, y = mnist_smoke.sample_seeds(2, np.random.default_rng(3))
    with pytest.raises(ConfigError):
        fgsm(lenet1, x, y, epsilon=0.0)


def test_iterative_fgsm_respects_ball(lenet1, mnist_smoke):
    x, y = mnist_smoke.sample_seeds(6, np.random.default_rng(4))
    adv = iterative_fgsm(lenet1, x, y, epsilon=0.1, steps=4)
    assert np.abs(adv - x).max() <= 0.1 + 1e-12
    assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_iterative_at_least_as_strong_as_single(lenet1, mnist_smoke):
    x, y = mnist_smoke.sample_seeds(25, np.random.default_rng(5))
    idx = np.arange(x.shape[0])
    single = lenet1.predict(fgsm(lenet1, x, y, epsilon=0.1))[idx, y]
    multi = lenet1.predict(
        iterative_fgsm(lenet1, x, y, epsilon=0.1, steps=5))[idx, y]
    assert multi.mean() <= single.mean() + 0.02


def test_adversarial_inputs_wrapper(lenet1, mnist_smoke):
    """Figure 9's adversarial series: FGSM from sampled test seeds."""
    from repro.experiments.coverage_comparison import _adversarial_inputs
    adv = _adversarial_inputs([lenet1], mnist_smoke, 5,
                              np.random.default_rng(6))
    assert adv.shape == (5, 1, 28, 28)
    assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_regression_adversarial(driving_trio, driving_smoke):
    model = driving_trio[0]
    x, y = driving_smoke.sample_seeds(15, np.random.default_rng(7))
    adv = regression_adversarial(model, x, y, epsilon=0.1)
    before = ((model.predict(x).reshape(-1) - y) ** 2).mean()
    after = ((model.predict(adv).reshape(-1) - y) ** 2).mean()
    assert after >= before * 0.9  # error must not shrink meaningfully
    assert adv.min() >= 0.0 and adv.max() <= 1.0

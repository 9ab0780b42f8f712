"""Extensions: multi-neuron objective, soft constraints, seed selection,
momentum ascent."""

import numpy as np
import pytest

from repro.core import (AscentEngine, DeepXplore, LightingConstraint,
                        MomentumRule, PAPER_HYPERPARAMS, make_rule)
from repro.coverage import NeuronCoverageTracker
from repro.errors import ConfigError, ConstraintError
from repro.extensions import (MultiNeuronCoverageObjective,
                              SoftBoxConstraint, class_balanced_seeds,
                              low_confidence_seeds, select_seeds)
from repro.nn import Dense, Network
from tests.nn.gradcheck import neuron_value


def _models(n=2, seed=0):
    models = []
    for i in range(n):
        rng = np.random.default_rng(seed + i)
        models.append(Network([
            Dense(4, 8, rng=rng, name="h"),
            Dense(8, 3, activation="softmax", rng=rng, name="o"),
        ], (4,), name=f"m{i}"))
    return models


class TestMultiNeuron:
    def test_picks_k_per_model(self):
        models = _models()
        trackers = [NeuronCoverageTracker(m, threshold=0.5) for m in models]
        obj = MultiNeuronCoverageObjective(trackers, neurons_per_model=3,
                                           rng=0)
        targets = obj.pick()
        assert all(len(t) == 3 for t in targets)
        for tracker, neurons in zip(trackers, targets):
            uncovered = set(tracker.uncovered_ids())
            assert all(n in uncovered for n in neurons)

    def test_gradient_matches_numeric(self):
        """The engine carries each model's picks on one
        ``gradient_joint`` sweep; that sweep is the derivative of the
        picked neurons' summed outputs."""
        models = _models()
        trackers = [NeuronCoverageTracker(m, threshold=0.5) for m in models]
        picks = MultiNeuronCoverageObjective(trackers, neurons_per_model=2,
                                             rng=1).pick()
        x = np.random.default_rng(5).random((1, 4))
        no_output = np.zeros((1,) + models[0].output_shape)
        grad = sum(m.run(x).gradient_joint(no_output, neurons, 1.0)
                   for m, neurons in zip(models, picks))

        def value(x_probe):
            return sum(float(neuron_value(m.run(x_probe), n).sum())
                       for m, neurons in zip(models, picks)
                       for n in neurons)

        eps = 1e-6
        for j in range(4):
            xp = x.copy(); xp[0, j] += eps
            xm = x.copy(); xm[0, j] -= eps
            numeric = (value(xp) - value(xm)) / (2 * eps)
            assert abs(grad[0, j] - numeric) < 1e-6

    def test_k_validation(self):
        with pytest.raises(ConfigError):
            MultiNeuronCoverageObjective([], neurons_per_model=0)

    def test_works_in_generator(self, mnist_trio, mnist_smoke):
        seeds, _ = mnist_smoke.sample_seeds(10, np.random.default_rng(2))
        engine = DeepXplore(
            mnist_trio, PAPER_HYPERPARAMS["mnist"], LightingConstraint(),
            rng=3,
            coverage_factory=lambda trackers, rng:
                MultiNeuronCoverageObjective(trackers, neurons_per_model=3,
                                             rng=rng))
        result = engine.run(seeds)
        assert result.seeds_processed == 10


class TestSoftBox:
    def test_penalty_pushes_back_inside(self):
        con = SoftBoxConstraint(mu=5.0)
        x = np.array([[1.2, 0.5, -0.1]])
        grad = np.zeros_like(x)
        out = con.apply(grad, x)
        assert out[0, 0] < 0  # pushes the over-bright pixel down
        assert out[0, 1] == 0.0
        assert out[0, 2] > 0  # pushes the negative pixel up

    def test_violation_measure(self):
        con = SoftBoxConstraint()
        assert con.violation(np.array([0.5])) == 0.0
        assert con.violation(np.array([1.5, -0.5])) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConstraintError):
            SoftBoxConstraint(mu=0.0)
        with pytest.raises(ConstraintError):
            SoftBoxConstraint(low=1.0, high=0.0)

    def test_generator_integration(self, mnist_trio, mnist_smoke):
        seeds, _ = mnist_smoke.sample_seeds(8, np.random.default_rng(4))
        engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                            SoftBoxConstraint(mu=10.0), rng=5)
        result = engine.run(seeds)
        for test in result.tests:
            assert test.x.min() >= -0.05 and test.x.max() <= 1.05


class TestSeedSelection:
    def test_balanced_covers_classes(self, mnist_smoke):
        x, y = class_balanced_seeds(mnist_smoke, 20, rng=0)
        assert x.shape[0] == 20
        counts = np.bincount(y, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_low_confidence_orders_by_confidence(self, mnist_trio,
                                                 mnist_smoke):
        x, _ = low_confidence_seeds(mnist_smoke, 5, rng=1,
                                    models=mnist_trio)
        chosen_conf = np.mean(
            [m.predict(x).max(axis=1) for m in mnist_trio], axis=0)
        all_conf = np.mean(
            [m.predict(mnist_smoke.x_test).max(axis=1)
             for m in mnist_trio], axis=0)
        assert chosen_conf.max() <= np.sort(all_conf)[5 + 1] + 1e-9

    def test_low_confidence_requires_models(self, mnist_smoke):
        with pytest.raises(ConfigError):
            low_confidence_seeds(mnist_smoke, 5)

    def test_dispatch(self, mnist_smoke, mnist_trio):
        for strategy in ("random", "balanced", "low-confidence"):
            x, y = select_seeds(strategy, mnist_smoke, 6, rng=2,
                                models=mnist_trio)
            assert x.shape[0] == 6
        with pytest.raises(ConfigError):
            select_seeds("hardest", mnist_smoke, 6)
        with pytest.raises(ConfigError):
            select_seeds("random", mnist_smoke, 0)

    def test_count_capped_at_split_size(self, mnist_smoke):
        x, _ = select_seeds("random", mnist_smoke, 10_000, rng=3)
        assert x.shape[0] == mnist_smoke.x_test.shape[0]


class TestMomentum:
    def test_beta_validation(self):
        with pytest.raises(ConfigError):
            MomentumRule(beta=1.0)
        with pytest.raises(ConfigError):
            make_rule("momentum", beta=1.0)

    def test_finds_differences(self, mnist_trio, mnist_smoke):
        seeds, _ = mnist_smoke.sample_seeds(15, np.random.default_rng(6))
        engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                            LightingConstraint(), rng=7,
                            rule=MomentumRule(0.8))
        result = engine.run(seeds)
        assert result.difference_count > 0
        for test in result.tests:
            assert test.x.min() >= 0.0 and test.x.max() <= 1.0

    def test_beta_zero_matches_vanilla(self, mnist_trio, mnist_smoke):
        seeds, _ = mnist_smoke.sample_seeds(8, np.random.default_rng(8))
        vanilla = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                             LightingConstraint(), rng=9)
        momentum = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                              LightingConstraint(), rng=9,
                              rule=MomentumRule(0.0))
        a = vanilla.run(seeds)
        b = momentum.run(seeds)
        assert a.difference_count == b.difference_count
        for ta, tb in zip(a.tests, b.tests):
            np.testing.assert_allclose(ta.x, tb.x)

    def test_momentum_batches(self, mnist_trio, mnist_smoke):
        """Momentum on the vectorized engine — impossible before the
        rules were split out of the sequential class."""
        seeds, _ = mnist_smoke.sample_seeds(15, np.random.default_rng(6))
        engine = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                              LightingConstraint(), rng=7,
                              rule=MomentumRule(0.8))
        result = engine.run(seeds)
        assert result.difference_count > 0
        for test in result.tests:
            assert test.x.min() >= 0.0 and test.x.max() <= 1.0

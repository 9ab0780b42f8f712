"""Joint-optimization objectives: values and gradients (Equations 2-3).

The coverage objective's neuron picks are the engine's; the value and
gradient forms are the test reference in ``objectives_reference``.
"""

import numpy as np
import pytest

from repro.core import CoverageObjective
from repro.coverage import NeuronCoverageTracker
from repro.errors import ConfigError
from repro.nn import Dense, Network
from repro.utils.rng import as_rng
from tests.core.objectives_reference import (
    DifferentialObjective, JointObjective, RegressionDifferentialObjective,
    coverage_gradient, coverage_value)


def _make_models(n=3, seed=0):
    models = []
    for i in range(n):
        rng = np.random.default_rng(seed + i)
        models.append(Network([
            Dense(4, 6, rng=rng, name="h"),
            Dense(6, 3, activation="softmax", rng=rng, name="o"),
        ], (4,), name=f"m{i}"))
    return models


def test_differential_value_definition():
    models = _make_models()
    x = np.random.default_rng(9).random((1, 4))
    obj = DifferentialObjective(models, target_index=1, seed_class=2,
                                lambda1=1.5)
    expected = (models[0].predict(x)[0, 2] + models[2].predict(x)[0, 2]
                - 1.5 * models[1].predict(x)[0, 2])
    assert obj.value(x) == pytest.approx(expected)


def test_differential_gradient_matches_numeric():
    models = _make_models()
    x = np.random.default_rng(10).random((1, 4))
    obj = DifferentialObjective(models, target_index=0, seed_class=1,
                                lambda1=2.0)
    grad = obj.gradient(x)
    eps = 1e-6
    for j in range(4):
        xp = x.copy(); xp[0, j] += eps
        xm = x.copy(); xm[0, j] -= eps
        numeric = (obj.value(xp) - obj.value(xm)) / (2 * eps)
        assert abs(grad[0, j] - numeric) < 1e-7


def test_differential_target_validation():
    models = _make_models()
    with pytest.raises(ConfigError):
        DifferentialObjective(models, target_index=5, seed_class=0,
                              lambda1=1.0)


def _make_regressors(n=2, seed=3):
    models = []
    for i in range(n):
        rng = np.random.default_rng(seed + i)
        models.append(Network([
            Dense(4, 6, rng=rng, name="h"),
            Dense(6, 1, activation="atan", rng=rng, name="o"),
        ], (4,), name=f"r{i}"))
    return models


def test_regression_objective_gradient():
    models = _make_regressors()
    x = np.random.default_rng(11).random((1, 4))
    obj = RegressionDifferentialObjective(models, target_index=1,
                                          lambda1=1.0)
    grad = obj.gradient(x)
    eps = 1e-6
    for j in range(4):
        xp = x.copy(); xp[0, j] += eps
        xm = x.copy(); xm[0, j] -= eps
        numeric = (obj.value(xp) - obj.value(xm)) / (2 * eps)
        assert abs(grad[0, j] - numeric) < 1e-7


def test_coverage_objective_targets_uncovered():
    models = _make_models(2)
    trackers = [NeuronCoverageTracker(m, threshold=0.5) for m in models]
    obj = CoverageObjective(trackers, rng=as_rng(0))
    targets = obj.pick()
    assert len(targets) == 2
    for tracker, target in zip(trackers, targets):
        assert target in set(tracker.uncovered_ids())


def test_coverage_objective_gradient_matches_numeric():
    models = _make_models(2)
    trackers = [NeuronCoverageTracker(m, threshold=0.5) for m in models]
    picks = CoverageObjective(trackers, rng=as_rng(1)).pick()
    x = np.random.default_rng(12).random((1, 4))
    grad = coverage_gradient(trackers, picks, x)
    eps = 1e-6
    for j in range(4):
        xp = x.copy(); xp[0, j] += eps
        xm = x.copy(); xm[0, j] -= eps
        numeric = (coverage_value(trackers, picks, xp)
                   - coverage_value(trackers, picks, xm)) / (2 * eps)
        assert abs(grad[0, j] - numeric) < 1e-6


def test_coverage_objective_handles_full_coverage():
    models = _make_models(2)
    trackers = [NeuronCoverageTracker(m, threshold=-1e9, scaled=False)
                for m in models]
    x = np.random.default_rng(13).random((1, 4))
    for t in trackers:
        t.update(x)
    picks = CoverageObjective(trackers, rng=as_rng(2)).pick()
    assert picks == [None, None]
    np.testing.assert_array_equal(coverage_gradient(trackers, picks, x), 0.0)
    assert coverage_value(trackers, picks, x) == 0.0


def test_joint_objective_combines():
    models = _make_models()
    trackers = [NeuronCoverageTracker(m, threshold=0.5) for m in models]
    diff = DifferentialObjective(models, 0, 1, lambda1=1.0)
    cov = CoverageObjective(trackers, rng=as_rng(3))
    joint = JointObjective(diff, cov, lambda2=0.7)
    x = np.random.default_rng(14).random((1, 4))
    grad = joint.step_gradient(x)
    assert grad.shape == x.shape
    # lambda2 = 0 short-circuits the coverage term entirely.
    joint0 = JointObjective(diff, None, lambda2=0.0)
    np.testing.assert_allclose(joint0.step_gradient(x), diff.gradient(x))
    assert joint0.value(x) == pytest.approx(diff.value(x))

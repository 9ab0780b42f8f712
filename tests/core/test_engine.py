"""The unified AscentEngine: rule contract, the float64 golden matrix,
and retire-and-compact.

The golden matrix in ``tests/data/golden_engines.json`` pins, under
fixed RNG, the exact float64 results of the batch-of-1 ``DeepXplore``
and the vectorized ``AscentEngine`` for every ascent rule
(``tools/capture_engine_goldens.py`` captures it and lists the
configurations).  Any change to the float64 arithmetic shows up here; a
float32-only change must leave the matrix untouched.  Also pinned:
campaign ``workers=2`` with momentum ≡ ``workers=1``.
"""

import inspect
import json
import os
import sys
import warnings

import numpy as np
import pytest

from repro.core import (AscentEngine, Campaign, DeepXplore,
                        LightingConstraint, MomentumRule, PAPER_HYPERPARAMS,
                        VanillaRule, make_rule,
                        run_ascent)
from repro.errors import ConfigError
from repro.nn.instrumentation import PassCounter

_REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, os.pardir)
sys.path.insert(0, os.path.join(_REPO_ROOT, "tools"))
# The capture tool is the single source of truth for the golden matrix
# (config list + result fingerprint); importing it keeps this test and
# a golden regeneration structurally in lockstep.
from capture_engine_goldens import CONFIGS, GOLDEN_PATH, \
    _constraint_for, _make_engine, assert_matches_golden, \
    digest_result  # noqa: E402

GOLDEN_CONFIGS = {name: spec for (name, *spec) in CONFIGS}


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["configs"]


def _run_config(name, request):
    (dataset_name, task, driver, rule_spec, draw_seed, engine_rng,
     n_seeds) = GOLDEN_CONFIGS[name]
    dataset = request.getfixturevalue(f"{dataset_name}_smoke")
    trio = request.getfixturevalue(f"{dataset_name}_trio")
    seeds, _ = dataset.sample_seeds(n_seeds,
                                    np.random.default_rng(draw_seed))
    engine = _make_engine(trio, PAPER_HYPERPARAMS[dataset_name],
                          _constraint_for(dataset_name, dataset), task,
                          engine_rng, driver, rule_spec)
    with PassCounter() as passes:
        result = engine.run(seeds)
    golden = digest_result(result, engine.trackers)
    golden["forwards"] = int(passes.total_forwards())
    return golden


class TestGoldenEquivalence:
    """The engines reproduce the recorded float64 goldens bit-for-bit —
    tests, coverage masks, AND forward-pass counts."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_matches_pre_unification_golden(self, name, goldens, request):
        assert_matches_golden(name, _run_config(name, request),
                              goldens[name])

    def test_golden_mismatch_names_rule_and_field(self):
        """A golden regression reads as 'which config, which field', not
        a bare nested-dict diff."""
        golden = {"tests": [{"seed_index": 0, "iterations": 4}],
                  "seeds_exhausted": 0}
        actual = {"tests": [{"seed_index": 0, "iterations": 7}],
                  "seeds_exhausted": 0}
        with pytest.raises(AssertionError) as err:
            assert_matches_golden("deepfool-batch-mnist", actual, golden)
        message = str(err.value)
        assert "deepfool-batch-mnist" in message
        assert "tests[0].iterations" in message


class TestFloat32Equivalence:
    """The float32 fast path finds the same behavior as the float64
    golden path — tolerance-based on the generated inputs, exact on the
    discrete outcomes (which seeds differ, when, and what the models
    predict) and on the coverage masks."""

    def test_float32_run_matches_float64(self, mnist_trio, mnist_smoke):
        from repro.core import resolve_models
        seeds, _ = mnist_smoke.sample_seeds(10, np.random.default_rng(3))

        def run(models):
            engine = AscentEngine(models, PAPER_HYPERPARAMS["mnist"],
                                  LightingConstraint(), rng=5)
            return engine.run(seeds), engine.trackers

        r64, trackers64 = run(mnist_trio)
        r32, trackers32 = run(resolve_models(mnist_trio, dtype=np.float32))
        assert len(r64.tests) == len(r32.tests) > 0
        for t64, t32 in zip(r64.tests, r32.tests):
            assert t32.x.dtype == np.float32
            assert t64.seed_index == t32.seed_index
            assert t64.iterations == t32.iterations
            np.testing.assert_array_equal(t64.predictions, t32.predictions)
            np.testing.assert_allclose(t64.x, t32.x, atol=1e-5)
        for a, b in zip(trackers64, trackers32):
            np.testing.assert_array_equal(a.state_dict()["covered"],
                                          b.state_dict()["covered"])


def test_campaign_momentum_worker_invariance(mnist_trio, mnist_smoke):
    """Momentum campaigns are worker-count invariant — the scenario
    combination (momentum x campaign) that did not exist before the
    unification."""
    seeds, _ = mnist_smoke.sample_seeds(20, np.random.default_rng(21))
    results, states = [], []
    for workers in (1, 2):
        campaign = Campaign(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                            LightingConstraint(), workers=workers,
                            shard_size=8, seed=9, rule=MomentumRule(0.8))
        results.append(campaign.run(seeds))
        states.append([t.state_dict() for t in campaign.trackers])
    r1, r2 = results
    assert len(r1.tests) == len(r2.tests) > 0
    for ta, tb in zip(r1.tests, r2.tests):
        assert ta.seed_index == tb.seed_index
        assert ta.iterations == tb.iterations
        np.testing.assert_array_equal(ta.x, tb.x)
    for sa, sb in zip(*states):
        np.testing.assert_array_equal(sa["covered"], sb["covered"])


class TestAscentRules:
    def test_make_rule(self):
        from repro.core.engine import (AdamRule, AdaptiveStepRule,
                                       DeepFoolRule, NesterovRule)
        assert isinstance(make_rule("vanilla"), VanillaRule)
        rule = make_rule("momentum", beta=0.5)
        assert isinstance(rule, MomentumRule) and rule.beta == 0.5
        assert make_rule("momentum").beta == 0.9
        assert isinstance(make_rule("nesterov"), NesterovRule)
        assert make_rule("nesterov", beta=0.7).beta == 0.7
        assert isinstance(make_rule("adam"), AdamRule)
        assert isinstance(make_rule("adaptive"), AdaptiveStepRule)
        fool = make_rule("deepfool", overshoot=0.05)
        assert isinstance(fool, DeepFoolRule) and fool.overshoot == 0.05
        with pytest.raises(ConfigError):
            make_rule("rmsprop")
        with pytest.raises(ConfigError):
            make_rule("vanilla", beta=0.5)
        with pytest.raises(ConfigError):
            make_rule("adam", beta=0.5)
        with pytest.raises(ConfigError):
            make_rule("momentum", overshoot=0.1)

    def test_beta_validation(self):
        with pytest.raises(ConfigError):
            MomentumRule(beta=1.0)
        with pytest.raises(ConfigError):
            MomentumRule(beta=-0.1)

    def test_identity_strings(self):
        from repro.core.engine import (AdamRule, AdaptiveStepRule,
                                       DeepFoolRule, NesterovRule)
        assert VanillaRule().identity() == "vanilla"
        assert MomentumRule(0.8).identity() == "momentum(beta=0.8)"
        assert NesterovRule(0.8).identity() == "nesterov(beta=0.8)"
        assert (AdamRule().identity()
                == "adam(beta1=0.9,beta2=0.999,eps=1e-08)")
        assert DeepFoolRule(0.02).identity() == "deepfool(overshoot=0.02)"
        assert (AdaptiveStepRule(MomentumRule(0.8)).identity()
                == "adaptive(momentum(beta=0.8),gamma=0.5,max_scale=4.0)")

    def test_momentum_state_compacts_with_retiring_seeds(self):
        rule = MomentumRule(0.5)
        x = np.zeros((4, 3))
        rule.reset(x)
        v = rule.update(np.ones((4, 3)))
        np.testing.assert_array_equal(v, np.ones((4, 3)))
        rule.compact(np.array([True, False, True, False]))
        v = rule.update(np.ones((2, 3)))
        np.testing.assert_array_equal(v, np.full((2, 3), 1.5))

    def test_clone_is_independent(self):
        rule = MomentumRule(0.5)
        rule.reset(np.zeros((2, 2)))
        rule.update(np.ones((2, 2)))
        clone = rule.clone()
        clone.update(np.ones((2, 2)))
        np.testing.assert_array_equal(rule._velocity, np.ones((2, 2)))

    def test_engine_rejects_non_rule(self, mnist_trio):
        with pytest.raises(ConfigError):
            AscentEngine(mnist_trio, rule="momentum")


class TestRunAscentLoop:
    """run_ascent is the repo's only ascent-iteration loop body."""

    def test_plain_iteration(self):
        x = run_ascent(np.zeros((2, 3)), 4,
                       lambda x, it: np.ones_like(x),
                       step=0.5, direction=None)
        np.testing.assert_allclose(x, np.full((2, 3), 2.0))

    def test_retire_and_compact(self):
        retired = []

        def on_step(x, iteration):
            keep = x[:, 0] < 3.0   # a row finishes when it reaches 3
            retired.extend((iteration, float(v)) for v in x[~keep, 0])
            return keep

        start = np.array([[0.0], [1.0], [2.0]])
        remaining = run_ascent(start.copy(), 10,
                               lambda x, it: np.ones_like(x), step=1.0,
                               direction=None, on_step=on_step)
        assert remaining.shape[0] == 0              # every row retired
        assert retired == [(1, 3.0), (2, 3.0), (3, 3.0)]

    def test_single_loop_body_in_the_repo(self):
        """Grep-level acceptance: the engine module holds the one
        ascent-iteration loop; the FGSM baseline iterates through it."""
        import repro.baselines.adversarial
        import repro.core.engine
        assert "for iteration in range" not in inspect.getsource(
            repro.baselines.adversarial)
        assert inspect.getsource(repro.core.engine).count(
            "for iteration in range") == 1


class TestExhaustedSeedCoverage:
    """Exhausted seeds fold their final tape into the trackers — the
    same way for every rule and driver (regression: the old momentum
    engine, like all pre-unification engines, silently dropped them)."""

    @pytest.fixture(scope="class")
    def exhausted_seed(self, mnist_trio, mnist_smoke):
        """A seed no engine resolves within a 2-iteration budget."""
        hp = PAPER_HYPERPARAMS["mnist"].with_(max_iterations=2)
        seeds, _ = mnist_smoke.sample_seeds(30, np.random.default_rng(3))
        for i in range(seeds.shape[0]):
            engine = DeepXplore(mnist_trio, hp, LightingConstraint(), rng=5)
            if engine.generate_from_seed(seeds[i]) is None:
                return seeds[i]
        pytest.fail("no exhausting seed found at max_iterations=2")

    def _coverage_after(self, mnist_trio, exhausted_seed, **engine_kwargs):
        hp = PAPER_HYPERPARAMS["mnist"].with_(max_iterations=2)
        engine = DeepXplore(mnist_trio, hp, LightingConstraint(), rng=5,
                            **engine_kwargs)
        assert engine.generate_from_seed(exhausted_seed) is None
        return [t.state_dict()["covered"] for t in engine.trackers]

    def test_exhausted_tape_is_folded(self, mnist_trio, exhausted_seed):
        covered = self._coverage_after(mnist_trio, exhausted_seed)
        assert sum(int(m.sum()) for m in covered) > 0

    def test_identical_across_rules_and_drivers(self, mnist_trio,
                                                exhausted_seed):
        """Coverage after an exhausted seed is the same whether the seed
        ran under the vanilla facade, momentum(beta=0), or the
        vectorized driver."""
        vanilla = self._coverage_after(mnist_trio, exhausted_seed)
        momentum = self._coverage_after(mnist_trio, exhausted_seed,
                                        rule=MomentumRule(0.0))
        hp = PAPER_HYPERPARAMS["mnist"].with_(max_iterations=2)
        batch = AscentEngine(mnist_trio, hp, LightingConstraint(), rng=5)
        result = batch.run(exhausted_seed[None])
        assert result.seeds_exhausted == 1
        vectorized = [t.state_dict()["covered"] for t in batch.trackers]
        for a, b, c in zip(vanilla, momentum, vectorized):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_momentum_beta_positive_also_folds(self, mnist_trio,
                                               exhausted_seed):
        covered = self._coverage_after(mnist_trio, exhausted_seed,
                                       rule=MomentumRule(0.9))
        assert sum(int(m.sum()) for m in covered) > 0


class TestFacades:
    """The public engine classes construct quietly: no deprecation
    path is left between a caller and the one engine."""

    def test_facades_construct_without_warnings(self, mnist_trio):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"])
            AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"])


class TestRuleComposability:
    """Extensions compose with any rule on the unified engine."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_multi_neuron_objective_with_momentum_batch(self, mnist_trio,
                                                        mnist_smoke, dtype):
        """float32 fuses every picked neuron into obj1's sweep; float64
        sums separate sweeps.  Both must run."""
        from repro.core import resolve_models
        from repro.extensions import MultiNeuronCoverageObjective
        seeds, _ = mnist_smoke.sample_seeds(10, np.random.default_rng(2))
        engine = AscentEngine(
            resolve_models(mnist_trio, dtype=dtype),
            PAPER_HYPERPARAMS["mnist"], LightingConstraint(),
            rng=3, rule=MomentumRule(0.8),
            coverage_factory=lambda trackers, rng:
                MultiNeuronCoverageObjective(trackers, neurons_per_model=3,
                                             rng=rng))
        result = engine.run(seeds)
        assert result.seeds_processed == 10

    def test_soft_constraint_with_momentum_batch(self, mnist_trio,
                                                 mnist_smoke):
        from repro.extensions import SoftBoxConstraint
        seeds, _ = mnist_smoke.sample_seeds(8, np.random.default_rng(4))
        engine = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                              SoftBoxConstraint(mu=10.0), rng=5,
                              rule=MomentumRule(0.5))
        result = engine.run(seeds)
        for test in result.tests:
            assert test.x.min() >= -0.05 and test.x.max() <= 1.05

    def test_per_seed_occlusion_with_momentum(self, mnist_trio,
                                              mnist_smoke):
        from repro.core import SingleRectOcclusion
        seeds, _ = mnist_smoke.sample_seeds(12, np.random.default_rng(13))
        engine = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                              SingleRectOcclusion(8, 8), rng=14,
                              rule=MomentumRule(0.8))
        result = engine.run(seeds)
        for test in result.tests:
            if test.iterations == 0:
                continue
            delta = np.abs(test.x - seeds[test.seed_index])[0]
            rows_hit, cols_hit = np.nonzero(delta > 1e-12)
            if rows_hit.size:
                assert rows_hit.max() - rows_hit.min() + 1 <= 8
                assert cols_hit.max() - cols_hit.min() + 1 <= 8

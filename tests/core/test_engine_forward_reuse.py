"""The tape-based engines: pass accounting and seed-path equivalence.

Two properties of the single-forward execution refactor are pinned here:

1. **Accounting** — each ascent iteration executes exactly one forward
   pass per model, shared by the differential objective, the coverage
   objective, the oracle check, and the coverage absorption, and exactly
   one backward sweep per model, which carries obj1 and the coverage
   neurons together at float32 and float64 alike (asserted with
   :class:`repro.nn.PassCounter`).
2. **Equivalence** — under a fixed RNG, the tape-driven ascent generates
   the same difference-inducing inputs as a reference ascent written
   against the self-contained objective forms in
   ``objectives_reference`` (the seed implementation's structure: fresh
   forwards for every objective term and oracle check).
"""

import numpy as np
import pytest

from repro.core import (AscentEngine, DeepXplore, CoverageObjective,
                        Hyperparams, Unconstrained, make_oracle,
                        resolve_models)
from repro.core.engine import normalize_gradient
from repro.coverage import NeuronCoverageTracker
from repro.nn import Dense, Network, PassCounter
from tests.core.objectives_reference import (DifferentialObjective,
                                             JointObjective)


def _make_models(n=3, seed=0):
    """A trio that agrees on most seeds, so most seeds ascend: one base
    network, each model's weights nudged by its own small noise."""
    models = []
    for i in range(n):
        base = np.random.default_rng(seed)
        model = Network([
            Dense(4, 8, rng=base, name="h"),
            Dense(8, 3, activation="softmax", rng=base, name="o"),
        ], (4,), name=f"m{i}")
        noise = np.random.default_rng([seed, i])
        for param in model.parameters():
            param.value += 0.03 * noise.standard_normal(param.shape)
        models.append(model)
    return models


HP = Hyperparams(step=0.1, max_iterations=15, lambda1=3.0, lambda2=0.3)
DTYPES = (np.float64, np.float32)


def _ascended(result):
    return [t for t in result.tests if t.iterations > 0]


def _reference_generate(models, trackers, hp, rng, seed_x):
    """The pre-tape ascent: self-contained objective forms, one fresh
    forward per view — used as the behavioural oracle for the tape
    loop."""
    oracle = make_oracle(models, "classification")
    constraint = Unconstrained()
    x = np.asarray(seed_x, dtype=np.float64)[None, ...]
    if bool(oracle.differs(x)[0]):
        for tracker in trackers:
            tracker.update(x)
        return x[0], 0
    seed_class = int(models[0].predict(x).argmax(axis=1)[0])
    target_index = int(rng.integers(0, len(models)))
    objective = JointObjective(
        DifferentialObjective(models, target_index, seed_class, hp.lambda1),
        CoverageObjective(trackers, rng=rng),
        hp.lambda2)
    constraint.setup(x[0], rng)
    for iteration in range(1, hp.max_iterations + 1):
        grad = objective.step_gradient(x)
        grad = constraint.apply(grad, x)
        grad = normalize_gradient(grad)
        x = constraint.project(x + hp.step * grad, x)
        if bool(oracle.differs(x)[0]):
            for tracker in trackers:
                tracker.update(x)
            return x[0], iteration
    return None, hp.max_iterations


def test_sequential_matches_reference_under_fixed_rng():
    seeds = np.random.default_rng(5).random((8, 4))

    engine_models = _make_models()
    engine = DeepXplore(engine_models, HP, rng=42)

    ref_models = _make_models()
    ref_trackers = [NeuronCoverageTracker(m, threshold=HP.threshold)
                    for m in ref_models]
    ref_rng = np.random.default_rng(42)

    ascended = 0
    for i in range(seeds.shape[0]):
        test = engine.generate_from_seed(seeds[i], seed_index=i)
        ref_x, ref_iters = _reference_generate(
            ref_models, ref_trackers, HP, ref_rng, seeds[i])
        if test is None:
            assert ref_x is None
            continue
        ascended += test.iterations > 0
        assert test.iterations == ref_iters
        np.testing.assert_allclose(test.x, ref_x, atol=1e-10)
    assert ascended >= 6
    # Coverage state evolved identically too.
    for engine_tracker, ref_tracker in zip(engine.trackers, ref_trackers):
        np.testing.assert_array_equal(engine_tracker.covered,
                                      ref_tracker.covered)


def test_sequential_engine_one_forward_per_model_per_iteration():
    seeds = np.random.default_rng(8).random((6, 4))
    for dtype in DTYPES:
        models = resolve_models(_make_models(seed=27), dtype=dtype)
        engine = DeepXplore(models, HP, rng=7)
        with PassCounter() as counter:
            result = engine.run(seeds)
        assert len(_ascended(result)) >= 4, dtype
        iterations = (sum(t.iterations for t in result.tests)
                      + result.seeds_exhausted * HP.max_iterations)
        for name in (model.name for model in models):
            # One forward per seed plus one per iteration; one backward
            # per iteration, obj1 and the coverage neuron in one sweep.
            assert (counter.forwards[name]
                    == result.seeds_processed + iterations), (dtype, name)
            assert counter.backwards[name] == iterations, (dtype, name)


def test_batched_engine_one_forward_per_model_per_iteration():
    seeds = np.random.default_rng(10).random((10, 4))
    for dtype in DTYPES:
        models = resolve_models(_make_models(seed=8), dtype=dtype)
        engine = AscentEngine(models, HP, rng=9)
        with PassCounter() as counter:
            result = engine.run(seeds)
        assert len(_ascended(result)) >= 8, dtype
        if result.seeds_exhausted:
            iterations = HP.max_iterations
        else:
            iterations = max(t.iterations for t in result.tests)
        for name in (model.name for model in models):
            # The whole seed set is one batch: one forward for the
            # pre-disagreement check, then one forward and one backward
            # per loop iteration.
            assert counter.forwards[name] == 1 + iterations, (dtype, name)
            assert counter.backwards[name] == iterations, (dtype, name)


def test_batched_matches_sequential_seed_classes_and_yield():
    # The batched engine's per-sample gradient-seed matrix must agree
    # with per-class sub-batching: same models, same seeds, same tests.
    models = _make_models(seed=29)
    seeds = np.random.default_rng(22).random((12, 4))
    batched = AscentEngine(models, HP, rng=5)
    result = batched.run(seeds)
    ascended = _ascended(result)
    assert len(ascended) >= 9
    # The ascending batch mixes seed classes, so the seed matrix carries
    # a different class column per row.
    assert len({t.seed_class for t in ascended}) >= 2
    oracle = make_oracle(models, "classification")
    for test in result.tests:
        assert bool(oracle.differs(test.x[None])[0])
        np.testing.assert_array_equal(
            oracle.predictions(test.x[None])[:, 0], test.predictions)


def test_no_engine_state_survives_a_run():
    models = _make_models(seed=31)
    engine = DeepXplore(models, HP, rng=2)
    layer_keys = [sorted(layer.__dict__) for m in models for layer in m.layers]
    model_keys = [sorted(m.__dict__) for m in models]
    engine.run(np.random.default_rng(3).random((4, 4)))
    assert [sorted(m.__dict__) for m in models] == model_keys
    assert [sorted(layer.__dict__)
            for m in models for layer in m.layers] == layer_keys

"""Forward-pass accounting for the generation engines.

The single-forward execution refactor promises that each ascent
iteration runs every model exactly once — the differential objective,
coverage objective, oracle check, and tracker update all derive from the
same :class:`~repro.nn.tape.ForwardPass`.  This benchmark pins that
accounting with :class:`repro.nn.PassCounter` at the same scale as
``test_batch_throughput.py`` and records the wall-clock alongside.

The pre-tape engine paid ~3-4 forwards per model per iteration (oracle
predict, class gradient, neuron gradient, plus coverage re-runs on every
absorbed test); the ``forwards/iter`` column documents the new cost.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import SCALE, SEED
from repro.core import (AscentEngine, DeepXplore, LightingConstraint,
                        PAPER_HYPERPARAMS)
from repro.datasets import load_dataset
from repro.models import get_trio
from repro.nn import PassCounter
from repro.utils.tables import render_table


@pytest.mark.parametrize("mode", ["sequential", "batched"])
def test_forward_reuse(benchmark, mode):
    dataset = load_dataset("mnist", scale=SCALE, seed=SEED)
    models = get_trio("mnist", scale=SCALE, seed=SEED, dataset=dataset)
    seeds, _ = dataset.sample_seeds(25, np.random.default_rng(171))
    hp = PAPER_HYPERPARAMS["mnist"]
    engine_cls = DeepXplore if mode == "sequential" else AscentEngine

    def run():
        engine = engine_cls(models, hp, LightingConstraint(), rng=73)
        counter = PassCounter()
        start = time.perf_counter()
        with counter:
            result = engine.run(seeds)
        return result, counter, time.perf_counter() - start

    result, counter, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.difference_count > 0

    if mode == "sequential":
        # One forward per model per seed visit (the oracle check on the
        # seed itself) plus exactly one per ascent iteration.
        iterations = (sum(t.iterations for t in result.tests)
                      + result.seeds_exhausted * hp.max_iterations)
        expected = result.seeds_processed + iterations
    else:
        # One forward per model for the seed batch, then one per loop
        # iteration over the shrinking active batch.
        if result.seeds_exhausted:
            loop_iterations = hp.max_iterations
        else:
            loop_iterations = max(
                (t.iterations for t in result.tests), default=0)
        iterations = loop_iterations
        expected = 1 + loop_iterations

    for model in models:
        assert counter.forwards[model.name] == expected, (
            f"{mode}/{model.name}: {counter.forwards[model.name]} forwards, "
            f"expected {expected}")

    per_iter = (counter.total_forwards() / (3 * max(iterations, 1)))
    print()
    print(render_table(
        ["mode", "seeds", "# diffs", "iters", "fwd/model", "fwd/iter",
         "backwards", "seconds"],
        [[mode, result.seeds_processed, result.difference_count,
          iterations, expected, round(per_iter, 2),
          counter.total_backwards(), round(elapsed, 2)]],
        title="[engine] forward passes per ascent iteration"))

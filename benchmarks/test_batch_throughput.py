"""Ablation: sequential Algorithm 1 vs the batched generator.

Measures wall-clock and yield for the same seed set; batching amortizes
per-iteration model passes across all active seeds.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import SCALE, SEED
from repro.core import (AscentEngine, DeepXplore, LightingConstraint,
                        PAPER_HYPERPARAMS)
from repro.datasets import load_dataset
from repro.models import get_trio
from repro.utils.tables import render_table


@pytest.mark.parametrize("mode", ["sequential", "batched"])
def test_batch_throughput(benchmark, mode):
    dataset = load_dataset("mnist", scale=SCALE, seed=SEED)
    models = get_trio("mnist", scale=SCALE, seed=SEED, dataset=dataset)
    seeds, _ = dataset.sample_seeds(40, np.random.default_rng(71))
    hp = PAPER_HYPERPARAMS["mnist"]
    engine_cls = DeepXplore if mode == "sequential" else AscentEngine

    def run():
        engine = engine_cls(models, hp, LightingConstraint(), rng=73)
        start = time.perf_counter()
        result = engine.run(seeds)
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["mode", "seeds", "# diffs", "seconds", "diffs/s"],
        [[mode, result.seeds_processed, result.difference_count,
          round(elapsed, 2),
          round(result.difference_count / max(elapsed, 1e-9), 1)]],
        title="[ablation] sequential vs batched generation"))
    assert result.difference_count > 0

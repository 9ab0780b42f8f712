"""Ablation: gradient RMS-normalization (present in the original
DeepXplore code, implicit in the paper).

Without normalization, raw probability gradients are tiny (1e-2..1e-4
RMS) and the fixed step size s barely moves the input; with it, s means
"pixels per iteration".  This bench quantifies that design choice.
"""

import functools

import numpy as np
import pytest

import repro.core.engine as engine_mod
from benchmarks.conftest import SCALE, SEED
from repro.core import DeepXplore, PAPER_HYPERPARAMS, LightingConstraint
from repro.datasets import load_dataset
from repro.models import get_trio
from repro.utils.tables import render_table


def _ascent_found(result):
    return sum(1 for t in result.tests if t.iterations > 0)


@pytest.mark.parametrize("normalized", [True, False])
def test_ablation_gradient_norm(benchmark, monkeypatch, normalized):
    dataset = load_dataset("mnist", scale=SCALE, seed=SEED)
    models = get_trio("mnist", scale=SCALE, seed=SEED, dataset=dataset)
    seeds, _ = dataset.sample_seeds(15, np.random.default_rng(61))
    hp = PAPER_HYPERPARAMS["mnist"]

    def run():
        engine = DeepXplore(models, hp, LightingConstraint(), rng=67)
        return engine.run(seeds)

    if not normalized:
        # The engine resolves run_ascent from its module on every seed,
        # so this arm steps along the raw gradient (direction=None).
        monkeypatch.setattr(engine_mod, "run_ascent", functools.partial(
            engine_mod.run_ascent, direction=None))
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    ascent = _ascent_found(result)
    print()
    print(render_table(
        ["normalized", "# diffs (ascent)", "pre-disagreed"],
        [[normalized, ascent, result.seeds_disagreed]],
        title="[ablation] gradient RMS normalization"))
    if normalized:
        assert ascent > 0
    else:
        monkeypatch.undo()
        assert _ascent_found(run()) > ascent

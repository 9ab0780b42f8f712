"""Tables 9-11: first-difference runtime across hyperparameter choices.

The metric is the time DeepXplore needs to generate the *first*
difference-inducing input via gradient ascent (pre-disagreeing seeds don't
count — they never enter the ascent loop), averaged over repetitions with
different seed orders.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import PAPER_HYPERPARAMS, DeepXplore, constraint_for_dataset
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentResult
from repro.models import TRIOS, get_trio
from repro.utils.rng import as_rng

__all__ = ["run_step_size_sweep", "run_lambda1_sweep", "run_lambda2_sweep",
           "first_difference_time"]

STEP_VALUES = (0.01, 0.1, 1.0, 10.0, 100.0)
LAMBDA1_VALUES = (0.5, 1.0, 2.0, 3.0)
LAMBDA2_VALUES = (0.5, 1.0, 2.0, 3.0)


def first_difference_time(models, dataset, hp, rng, max_seeds=30):
    """Seconds until the first ascent-found difference (NaN if none)."""
    seeds, _ = dataset.sample_seeds(
        min(max_seeds, dataset.x_test.shape[0]), rng)
    runner = DeepXplore(models, hp, constraint_for_dataset(dataset),
                        task=dataset.task, rng=rng)
    start = time.perf_counter()
    for i in range(seeds.shape[0]):
        test = runner.generate_from_seed(seeds[i], seed_index=i)
        if test is not None and test.iterations > 0:
            return time.perf_counter() - start
    return float("nan")


def _sweep(experiment_id, title, param_name, values, scale, seed,
           repetitions, use_cache, datasets, paper_reference):
    datasets = datasets or list(TRIOS)
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=["Dataset"] + [f"{param_name}={v:g}" for v in values],
        paper_reference=paper_reference,
    )
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=scale, seed=seed)
        models = get_trio(dataset_name, scale=scale, seed=seed,
                          dataset=dataset, use_cache=use_cache)
        base_hp = PAPER_HYPERPARAMS[dataset_name]
        row = [dataset_name]
        for value in values:
            hp = base_hp.with_(**{param_name: value})
            times = []
            for rep in range(repetitions):
                rng = as_rng(seed * 7919 + rep)
                times.append(first_difference_time(models, dataset, hp, rng))
            mean = float(np.nanmean(times)) if not all(
                np.isnan(t) for t in times) else float("nan")
            row.append("-" if np.isnan(mean) else round(mean, 3))
        result.rows.append(row)
    result.notes.append(
        f"cells: mean seconds to first ascent-found difference over "
        f"{repetitions} repetition(s) with the sequential engine; "
        f"'-' = none found")
    return result


def run_step_size_sweep(scale="small", seed=0, repetitions=2,
                        use_cache=True, datasets=None, values=STEP_VALUES):
    """Table 9: runtime vs gradient-ascent step size s."""
    return _sweep(
        "table9", "First-difference runtime vs step size s", "step",
        values, scale, seed, repetitions, use_cache, datasets,
        paper_reference=("optimal s varies by dataset; e.g. MNIST fastest "
                         "at s=0.01 (0.19s), ImageNet at s=10 (1.06s)"))


def run_lambda1_sweep(scale="small", seed=0, repetitions=2,
                      use_cache=True, datasets=None, values=LAMBDA1_VALUES):
    """Table 10: runtime vs lambda1."""
    return _sweep(
        "table10", "First-difference runtime vs lambda1", "lambda1",
        values, scale, seed, repetitions, use_cache, datasets,
        paper_reference=("optimal lambda1 varies; e.g. MNIST fastest at 3, "
                         "VirusTotal at 2"))


def run_lambda2_sweep(scale="small", seed=0, repetitions=2,
                      use_cache=True, datasets=None, values=LAMBDA2_VALUES):
    """Table 11: runtime vs lambda2."""
    return _sweep(
        "table11", "First-difference runtime vs lambda2", "lambda2",
        values, scale, seed, repetitions, use_cache, datasets,
        paper_reference="lambda2 = 0.5 tends to be optimal for all datasets")

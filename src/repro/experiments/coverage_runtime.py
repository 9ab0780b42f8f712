"""Table 8: time and seeds needed to reach full neuron coverage.

DeepXplore cycles through seeds until every tracked neuron activates.  As
in the paper, fully connected layers are excluded for the image datasets
("some neurons in fully-connected layers ... are very hard to activate"),
while the MLP-only malware models track all layers.
"""

from __future__ import annotations

from repro.core import PAPER_HYPERPARAMS, DeepXplore, constraint_for_dataset
from repro.coverage import NeuronCoverageTracker
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentResult, seeds_for_scale
from repro.models import TRIOS, get_trio
from repro.nn import Dense
from repro.utils.rng import as_rng

__all__ = ["run_coverage_runtime"]

_IMAGE_DATASETS = ("mnist", "imagenet", "driving")


def _layer_filter_for(dataset_name):
    if dataset_name in _IMAGE_DATASETS:
        return lambda layer: not isinstance(layer, Dense)
    return None


def run_coverage_runtime(scale="small", seed=0, target_coverage=1.0,
                         use_cache=True, datasets=None, max_visit_factor=5):
    """Measure time/seeds to ``target_coverage`` for each dataset trio."""
    datasets = datasets or list(TRIOS)
    result = ExperimentResult(
        experiment_id="table8",
        title="Time to reach full neuron coverage",
        headers=["Dataset", "time (s)", "seeds used", "achieved NCov",
                 "# tests"],
        paper_reference=("6.6s-196.4s and 6-35 seeds to reach 100% "
                         "coverage, depending on dataset"),
    )
    rng = as_rng(seed + 8)
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=scale, seed=seed)
        models = get_trio(dataset_name, scale=scale, seed=seed,
                          dataset=dataset, use_cache=use_cache)
        layer_filter = _layer_filter_for(dataset_name)
        hp = PAPER_HYPERPARAMS[dataset_name]
        trackers = [NeuronCoverageTracker(m, threshold=hp.threshold,
                                          layer_filter=layer_filter)
                    for m in models]
        n_seeds = seeds_for_scale(scale, maximum=dataset.x_test.shape[0])
        runner = DeepXplore(models, hp, constraint_for_dataset(dataset),
                            task=dataset.task, rng=rng, trackers=trackers)
        seeds, _ = dataset.sample_seeds(n_seeds, rng)
        run = runner.run(seeds, desired_coverage=target_coverage, cycle=True,
                         max_seed_visits=n_seeds * max_visit_factor)
        result.rows.append([
            dataset_name, round(run.elapsed, 2), run.seeds_processed,
            f"{runner.mean_coverage():.1%}", run.difference_count,
        ])
    result.notes.append(
        "image datasets track non-FC layers only, matching the paper; "
        "runs stop early if the seed-visit budget is exhausted")
    return result

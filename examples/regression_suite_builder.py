#!/usr/bin/env python
"""Build a minimal regression test suite from DeepXplore's output.

Workflow a team shipping a DNN would actually run:

1. generate difference-inducing inputs for the model trio (batched
   generator for throughput);
2. minimize the suite to the smallest subset preserving joint neuron
   coverage (greedy set cover);
3. archive the kept tests plus a self-contained model file
   (architecture + weights) for the CI regression job.

Run:  python examples/regression_suite_builder.py
"""

import os

import numpy as np

from repro import (PAPER_HYPERPARAMS, constraint_for_dataset, get_trio,
                   load_dataset)
from repro.analysis import minimize_suite
from repro.core import AscentEngine
from repro.coverage import coverage_of_inputs
from repro.nn import save_network

SCALE = "smoke"
THRESHOLD = 0.25


def main():
    dataset = load_dataset("mnist", scale=SCALE, seed=0)
    models = get_trio("mnist", scale=SCALE, seed=0, dataset=dataset)

    print("Generating difference-inducing inputs (batched)...")
    seeds, _ = dataset.sample_seeds(50, np.random.default_rng(47))
    engine = AscentEngine(models, PAPER_HYPERPARAMS["mnist"],
                          constraint_for_dataset(dataset), rng=53)
    result = engine.run(seeds)
    tests = result.test_inputs()
    if tests.shape[0] == 0:
        print("no tests generated; try scale='small'")
        return
    print(f"  {tests.shape[0]} tests in {result.elapsed:.1f}s")

    print("\nMinimizing the suite (greedy coverage set-cover)...")
    chosen, covered = minimize_suite(models, tests, threshold=THRESHOLD)
    kept = tests[chosen]
    print(f"  kept {kept.shape[0]}/{tests.shape[0]} tests "
          f"({covered:.1%} of jointly reachable neurons)")
    for model in models:
        full = coverage_of_inputs(model, tests, threshold=THRESHOLD)
        mini = coverage_of_inputs(model, kept, threshold=THRESHOLD)
        print(f"  {model.name}: full-suite NCov {full:.1%} -> "
              f"minimized {mini:.1%}")

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "regression-suite")
    os.makedirs(out_dir, exist_ok=True)
    np.savez_compressed(os.path.join(out_dir, "suite.npz"), tests=kept)
    for model in models:
        save_network(model, os.path.join(out_dir, f"{model.name}.npz"))
    print(f"\nArchived minimized suite + self-contained models in "
          f"{out_dir}")
    print("A CI job can now `load_network(...)` each model and assert "
          "its predictions on suite.npz stay unchanged.")


if __name__ == "__main__":
    main()

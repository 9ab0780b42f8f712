#!/usr/bin/env python
"""Quickstart: differential-test three MNIST models with DeepXplore.

Loads the synthetic MNIST dataset, trains (or loads cached) LeNet-1/4/5,
then runs DeepXplore's gradient-ascent joint optimization under the
lighting constraint.  Prints the difference-inducing inputs found, the
neuron coverage achieved, and writes one seed/generated image pair next
to this script.

The engine is ``DeepXplore``, Algorithm 1 one seed at a time: swap in
``AscentEngine`` (same arguments) for the vectorized driver, or pass
``rule=make_rule("momentum")`` for heavy-ball ascent.

Run:  python examples/quickstart.py
"""

import os

import numpy as np

from repro import (PAPER_HYPERPARAMS, DeepXplore, constraint_for_dataset,
                   get_trio, load_dataset)
from repro.utils.imageops import save_pgm

SCALE = "smoke"    # bump to "small"/"full" for bigger runs


def main():
    print("Loading dataset and models (first run trains and caches)...")
    dataset = load_dataset("mnist", scale=SCALE, seed=0)
    models = get_trio("mnist", scale=SCALE, seed=0, dataset=dataset)
    for model in models:
        print(f"  {model.name}: {model.total_neurons} neurons, "
              f"{model.parameter_count()} parameters")

    seeds, _ = dataset.sample_seeds(40, rng=np.random.default_rng(7))
    engine = DeepXplore(models, PAPER_HYPERPARAMS["mnist"],
                        constraint_for_dataset(dataset),
                        task=dataset.task, rng=11)
    result = engine.run(seeds)

    print(f"\nProcessed {result.seeds_processed} seeds in "
          f"{result.elapsed:.1f}s:")
    print(f"  difference-inducing inputs : {result.difference_count}")
    print(f"  seeds already disagreeing  : {result.seeds_disagreed}")
    print(f"  mean neuron coverage       : {engine.mean_coverage():.1%}")

    ascent = [t for t in result.tests if t.iterations > 0]
    if ascent:
        test = ascent[0]
        names = [m.name for m in models]
        verdicts = ", ".join(f"{n}={p}" for n, p in
                             zip(names, test.predictions))
        print(f"\nExample: seed #{test.seed_index} "
              f"(agreed class {test.seed_class}) now predicts: {verdicts}")
        out_dir = os.path.dirname(os.path.abspath(__file__))
        save_pgm(os.path.join(out_dir, "quickstart-seed.pgm"),
                 seeds[test.seed_index])
        save_pgm(os.path.join(out_dir, "quickstart-generated.pgm"), test.x)
        print(f"Wrote quickstart-seed.pgm / quickstart-generated.pgm "
              f"to {out_dir}")


if __name__ == "__main__":
    main()

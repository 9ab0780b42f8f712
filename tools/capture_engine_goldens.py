#!/usr/bin/env python
"""Regenerate ``tests/data/golden_engines.json``.

The golden file pins the exact behaviour of the generation engines —
test inputs (content hashes), iteration counts, predictions, and final
coverage masks — for a fixed matrix of (rule, driver, dataset)
configurations under fixed RNG.  ``tests/core/test_engine.py`` replays
the matrix against the unified :class:`~repro.core.engine.AscentEngine`
and asserts bit-identical results.

The file committed in this repo was captured from the *pre-unification*
engines (the separate ``DeepXplore`` / ``BatchDeepXplore`` /
``MomentumDeepXplore`` loop bodies), so the pins prove the refactor
changed nothing.  Re-run this script only when the pinned behaviour is
*meant* to change (it overwrites the goldens with current behaviour):

    PYTHONPATH=src python tools/capture_engine_goldens.py

All capture runs disable the engine's exhausted-tape folding
(``absorb_exhausted=False``) because the pre-refactor engines never
folded exhausted seeds' tapes into coverage.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro.core import AscentEngine, DeepXplore, LightingConstraint, \
    PAPER_HYPERPARAMS, constraint_for_dataset, make_rule
from repro.datasets import load_dataset
from repro.models import get_trio
from repro.nn.instrumentation import PassCounter

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "tests", "data",
                           "golden_engines.json")

#: The pinned matrix.  Each entry: (config name, dataset, task, driver,
#: rule spec, seed-draw rng, engine rng, seed count).
CONFIGS = [
    ("vanilla-sequential-mnist", "mnist", "classification", "sequential",
     ("vanilla", None), 3, 5, 10),
    ("vanilla-batch-mnist", "mnist", "classification", "batch",
     ("vanilla", None), 3, 5, 10),
    ("momentum-sequential-mnist", "mnist", "classification", "sequential",
     ("momentum", 0.8), 3, 5, 10),
    ("vanilla-batch-driving", "driving", "regression", "batch",
     ("vanilla", None), 3, 5, 8),
    # Rule-library rows (captured from the unified engine when each rule
    # landed; there is no pre-unification counterpart for these).
    ("nesterov-batch-mnist", "mnist", "classification", "batch",
     ("nesterov", 0.9), 3, 5, 10),
    ("adam-batch-mnist", "mnist", "classification", "batch",
     ("adam", None), 3, 5, 10),
    ("deepfool-batch-mnist", "mnist", "classification", "batch",
     ("deepfool", None), 3, 5, 10),
    ("adaptive-batch-mnist", "mnist", "classification", "batch",
     ("adaptive", None), 3, 5, 10),
]


def assert_matches_golden(name, actual, golden):
    """Field-by-field golden comparison that fails loudly.

    A mismatch names the rule configuration and the differing field
    (and, for per-test rows, which test), so a regression reads as
    "deepfool-batch-mnist: tests[3].iterations changed" instead of a
    bare nested-dict diff.
    """
    def fail(field, expected, got):
        raise AssertionError(
            f"golden mismatch for config {name!r}, field {field}:\n"
            f"  expected: {expected!r}\n"
            f"  actual:   {got!r}")

    for field in sorted(set(golden) | set(actual)):
        expected, got = golden.get(field), actual.get(field)
        if expected == got:
            continue
        if field == "tests" and isinstance(expected, list) \
                and isinstance(got, list):
            if len(expected) != len(got):
                fail("len(tests)", len(expected), len(got))
            for i, (erow, grow) in enumerate(zip(expected, got)):
                for key in sorted(set(erow) | set(grow)):
                    if erow.get(key) != grow.get(key):
                        fail(f"tests[{i}].{key}", erow.get(key),
                             grow.get(key))
        if field == "coverage" and isinstance(expected, dict) \
                and isinstance(got, dict):
            for model in sorted(set(expected) | set(got)):
                erow, grow = expected.get(model, {}), got.get(model, {})
                for key in sorted(set(erow) | set(grow)):
                    if erow.get(key) != grow.get(key):
                        fail(f"coverage[{model!r}].{key}", erow.get(key),
                             grow.get(key))
        fail(field, expected, got)


def _make_engine(models, hp, constraint, task, rng, driver, rule_spec):
    """Build the engine under capture: the batch-of-1 facade for the
    sequential driver, the vectorized engine otherwise."""
    kind, beta = rule_spec
    cls = DeepXplore if driver == "sequential" else AscentEngine
    return cls(models, hp, constraint, task=task, rng=rng,
               rule=make_rule(kind, beta=beta), absorb_exhausted=False)


def _constraint_for(dataset_name, dataset):
    if dataset_name == "mnist":
        return LightingConstraint()
    return constraint_for_dataset(dataset)


def digest_result(result, trackers):
    """The comparable fingerprint of one engine run."""
    tests = []
    for test in result.tests:
        tests.append({
            "seed_index": int(test.seed_index),
            "iterations": int(test.iterations),
            "x_sha256": hashlib.sha256(
                np.ascontiguousarray(test.x).tobytes()).hexdigest(),
            "predictions": np.asarray(test.predictions).tolist(),
        })
    coverage = {}
    for tracker in trackers:
        mask = tracker.state_dict()["covered"]
        coverage[tracker.network.name] = {
            "covered_count": int(mask.sum()),
            "mask_sha256": hashlib.sha256(
                np.ascontiguousarray(mask).tobytes()).hexdigest(),
        }
    return {
        "tests": tests,
        "seeds_disagreed": int(result.seeds_disagreed),
        "seeds_exhausted": int(result.seeds_exhausted),
        "coverage": coverage,
    }


def capture():
    goldens = {"configs": {}}
    for (name, dataset_name, task, driver, rule_spec, draw_seed,
         engine_rng, n_seeds) in CONFIGS:
        dataset = load_dataset(dataset_name, scale="smoke", seed=0)
        models = get_trio(dataset_name, scale="smoke", seed=0,
                          dataset=dataset)
        seeds, _ = dataset.sample_seeds(n_seeds,
                                        np.random.default_rng(draw_seed))
        hp = PAPER_HYPERPARAMS[dataset_name]
        engine = _make_engine(models, hp, _constraint_for(dataset_name,
                                                          dataset),
                              task, engine_rng, driver, rule_spec)
        with PassCounter() as passes:
            result = engine.run(seeds)
        golden = digest_result(result, engine.trackers)
        golden["forwards"] = int(passes.total_forwards())
        goldens["configs"][name] = golden
        print(f"{name}: {len(result.tests)} tests, "
              f"{result.seeds_exhausted} exhausted, "
              f"{golden['forwards']} forwards")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.normpath(GOLDEN_PATH)}")


if __name__ == "__main__":
    capture()

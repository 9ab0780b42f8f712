#!/usr/bin/env python
"""Regenerate ``tests/data/golden_engines.json``.

The golden file pins the exact float64 behaviour of the generation
engines — test inputs (content hashes), iteration counts, predictions,
final coverage masks and forward-pass counts — for a fixed matrix of
(rule, driver, dataset) configurations under fixed RNG.
``tests/core/test_engine.py`` replays the matrix against
:class:`~repro.core.engine.DeepXplore` and
:class:`~repro.core.engine.AscentEngine` and asserts bit-identical
results, so any change to the float64 arithmetic shows up there.

Re-run this script only when the pinned behaviour is *meant* to change
(it overwrites the goldens with current behaviour):

    PYTHONPATH=src python tools/capture_engine_goldens.py

Before writing, it prints what moved against the file it replaces: per
config, how many ``x_sha256`` input hashes changed, then every other
field that changed with its old and new value.  A change meant to keep
the discrete outcomes should move input hashes only.

The coverage masks are the engine's accounting: exhausted seeds fold
their final tapes in as well as difference-inducing inputs.
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
    # Rule-library rows.
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
               rule=make_rule(kind, beta=beta))


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


def _flatten(value, path=""):
    """``{field path: leaf}`` for a nested golden record, e.g.
    ``tests[3].predictions[0]``."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else str(key), item)
                 for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    else:
        return {path: value}
    flat = {}
    for key, item in items:
        flat.update(_flatten(item, key))
    return flat


def report_changes(old, new):
    """Print, per config, how many input hashes moved between two golden
    ``configs`` maps and every other field that changed."""
    for name in sorted(set(old) | set(new)):
        before = _flatten(old.get(name, {}))
        after = _flatten(new.get(name, {}))
        moved = [key for key in sorted(set(before) | set(after))
                 if before.get(key) != after.get(key)]
        hashes = [key for key in moved if key.endswith(".x_sha256")]
        total = sum(key.endswith(".x_sha256") for key in after)
        print(f"{name}: x_sha256 {len(hashes)}/{total} changed, "
              f"{len(moved) - len(hashes)} other field(s) changed")
        for key in moved:
            if not key.endswith(".x_sha256"):
                print(f"  {key}: {before.get(key)!r} -> {after.get(key)!r}")


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
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            previous = json.load(handle)["configs"]
        report_changes(previous, goldens["configs"])
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.normpath(GOLDEN_PATH)}")


if __name__ == "__main__":
    capture()

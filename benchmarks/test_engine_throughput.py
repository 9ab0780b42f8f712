"""Unified-engine benchmark: no regression vs the pre-refactor batch
engine, plus the vanilla-vs-momentum iterations-to-difference record.

Writes ``BENCH_engine.json`` at the repo root (the engine counterpart
of ``BENCH_fuzz.json``).  Wall-clock numbers are recorded for trend
data; the *assertions* pin forward-pass counts, which are deterministic
and machine-independent: the unified engine must spend no more forwards
(and push no more samples through the models) than the pre-refactor
``BatchDeepXplore`` did on the identical scenario.
"""

import json
import os
import statistics
import time

import numpy as np
import pytest

from benchmarks.bench_records import record_bench
from benchmarks.conftest import SCALE, SEED
from repro.core import (ASCENT_RULES, AdamRule, AdaptiveStepRule,
                        AscentEngine, DeepFoolRule, LightingConstraint,
                        MomentumRule, NesterovRule, PAPER_HYPERPARAMS,
                        resolve_models)
from repro.datasets import load_dataset
from repro.models import get_trio
from repro.nn.instrumentation import PassCounter
from repro.utils.tables import render_table

BENCH_ENGINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_engine.json")

#: Pre-refactor baseline: a one-off ``PassCounter`` measurement of the
#: seed tree's (commit 3fa3108) ``BatchDeepXplore.run`` over the exact
#: scenario below — 40 MNIST smoke seeds drawn with rng 71, engine rng
#: 73, paper hyperparams, lighting constraint.  Because the unified
#: vanilla engine is pinned bit-identical to that code
#: (tests/core/test_engine.py), re-measuring with the current engine
#: reproduces these numbers exactly (folding exhausted seeds' tapes
#: into coverage reads tapes already recorded and costs no forwards).
PRE_REFACTOR_FORWARDS = 93
PRE_REFACTOR_FORWARD_SAMPLES = 2208

#: The committed pre-optimization throughput of this very scenario:
#: ``unified-engine[vanilla-batch]`` from the BENCH_engine.json that
#: shipped with the float64-only substrate (hard-coded f64 kernels, no
#: workspace reuse, two backward sweeps per model per iteration).  The
#: ``substrate[before]``/``substrate[after]`` records compare the
#: current float32 + workspace + fused-backward fast path against it.
PRE_OPT_SEEDS_PER_SEC = 49.59

#: Interleaved repeats per (dtype, rule) cell in the throughput matrix.
MATRIX_REPEATS = 3

_RECORDS = []


@pytest.fixture(scope="module", autouse=True)
def write_engine_records():
    yield
    if not _RECORDS:
        return
    payload = {
        "schema": 1,
        "scale": SCALE,
        "seed": SEED,
        "baseline": {
            "forwards": PRE_REFACTOR_FORWARDS,
            "forward_samples": PRE_REFACTOR_FORWARD_SAMPLES,
        },
        "benchmarks": sorted(_RECORDS, key=lambda r: r["name"]),
    }
    with open(BENCH_ENGINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _scenario(name="mnist"):
    dataset = load_dataset(name, scale=SCALE, seed=SEED)
    models = get_trio(name, scale=SCALE, seed=SEED, dataset=dataset)
    seeds, _ = dataset.sample_seeds(40, np.random.default_rng(71))
    return models, seeds, PAPER_HYPERPARAMS[name]


def test_unified_engine_no_regression(benchmark):
    """Unified vectorized engine vs the pre-refactor batch baseline."""
    models, seeds, hp = _scenario()

    def run():
        engine = AscentEngine(models, hp, LightingConstraint(), rng=73)
        with PassCounter() as passes:
            start = time.perf_counter()
            result = engine.run(seeds)
            elapsed = time.perf_counter() - start
        return result, elapsed, passes

    (result, elapsed, passes) = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    forwards = passes.total_forwards()
    samples = sum(passes.forward_samples.values())
    seeds_per_sec = seeds.shape[0] / max(elapsed, 1e-9)
    _RECORDS.append({
        "name": "unified-engine[vanilla-batch]",
        "seconds": round(elapsed, 4),
        "seeds_per_sec": round(seeds_per_sec, 2),
        "forwards": int(forwards),
        "forward_samples": int(samples),
        "differences": result.difference_count,
    })
    record_bench(elapsed, label="unified-vanilla",
                 seeds_per_sec=seeds_per_sec, forwards=forwards)
    print()
    print(render_table(
        ["engine", "seeds/s", "forwards", "samples", "# diffs"],
        [["unified", round(seeds_per_sec, 1), forwards, samples,
          result.difference_count],
         ["pre-refactor batch", "-", PRE_REFACTOR_FORWARDS,
          PRE_REFACTOR_FORWARD_SAMPLES, "-"]],
        title="[engine] unified vs pre-refactor batch"))
    assert result.difference_count > 0
    assert forwards <= PRE_REFACTOR_FORWARDS
    assert samples <= PRE_REFACTOR_FORWARD_SAMPLES


def test_dtype_rule_throughput_matrix(benchmark):
    """seeds_per_sec per (dtype, ascent rule) cell, plus the
    before/after substrate records the perf work is judged by.

    The LeNet trio runs only stride-1 convs, so one more cell runs the
    same 40-seed scenario on the Dave trio (float32, vanilla), whose
    stride-2 convs no other cell reaches."""
    models, seeds, hp = _scenario()
    resolved = {
        "float64": resolve_models(models, dtype="float64"),
        "float32": resolve_models(models, dtype="float32"),
    }
    rules = (("vanilla", None), ("momentum", MomentumRule(0.9)))
    driving_models, driving_seeds, driving_hp = _scenario("driving")
    driving_models = resolve_models(driving_models, dtype="float32")
    driving_seeds = driving_seeds.astype("float32")

    def run():
        samples, differences = {}, {}
        for repeat in range(MATRIX_REPEATS):
            # Alternate which dtype runs first, so a slow stretch of a
            # shared machine lands on both sides of the comparison.
            order = (("float64", "float32") if repeat % 2 == 0
                     else ("float32", "float64"))
            for dtype in order:
                cell_seeds = seeds.astype(dtype)
                for label, rule in rules:
                    engine = AscentEngine(resolved[dtype], hp,
                                          LightingConstraint(), rng=73,
                                          rule=rule)
                    start = time.perf_counter()
                    result = engine.run(cell_seeds)
                    key = f"{dtype}-{label}"
                    samples.setdefault(key, []).append(
                        time.perf_counter() - start)
                    differences[key] = result.difference_count
            engine = AscentEngine(driving_models, driving_hp,
                                  LightingConstraint(), task="regression",
                                  rng=73)
            start = time.perf_counter()
            result = engine.run(driving_seeds)
            key = "float32-vanilla-driving"
            samples.setdefault(key, []).append(time.perf_counter() - start)
            differences[key] = result.difference_count
        return samples, differences

    samples, differences = benchmark.pedantic(run, rounds=1, iterations=1)
    cells = {}
    for key, times in samples.items():
        best = min(times)   # best-of: what bench-smoke compares
        cells[key] = {
            "seconds": round(best, 4),
            "seeds_per_sec": round(seeds.shape[0] / max(best, 1e-9), 2),
            "differences": differences[key],
        }
    for key, row in cells.items():
        _RECORDS.append({"name": f"engine-throughput[{key}]", **row})
    after = cells["float32-vanilla"]
    _RECORDS.append({
        "name": "substrate[before]",
        "seeds_per_sec": PRE_OPT_SEEDS_PER_SEC,
        "note": ("committed float64 pre-optimization measurement of "
                 "this scenario"),
    })
    _RECORDS.append({
        "name": "substrate[after]",
        "seconds": after["seconds"],
        "seeds_per_sec": after["seeds_per_sec"],
        "speedup": round(after["seeds_per_sec"] / PRE_OPT_SEEDS_PER_SEC,
                         2),
    })
    print()
    print(render_table(
        ["cell", "seeds/s", "seconds", "# diffs"],
        [[key, row["seeds_per_sec"], row["seconds"], row["differences"]]
         for key, row in cells.items()],
        title="[engine] throughput per (dtype, rule) cell"))
    # Machine-independent floors only: every cell still finds
    # differences, and float32 beats float64 under the same rule, on the
    # median of the interleaved repeats.
    assert all(row["differences"] > 0 for row in cells.values())
    f32 = statistics.median(samples["float32-vanilla"])
    f64 = statistics.median(samples["float64-vanilla"])
    assert f32 < f64, (f"float32-vanilla median {f32:.3f}s is not faster "
                       f"than float64-vanilla {f64:.3f}s")


#: The leaderboard lineup: every registered rule, with the betas the
#: docs quote.  ``make_rule`` defaults fill in the rest.
LEADERBOARD = (
    ("vanilla", lambda: None),
    ("momentum", lambda: MomentumRule(0.9)),
    ("nesterov", lambda: NesterovRule(0.9)),
    ("adam", lambda: AdamRule()),
    ("deepfool", lambda: DeepFoolRule()),
    ("adaptive", lambda: AdaptiveStepRule(MomentumRule(0.9))),
)


def test_rule_leaderboard(benchmark):
    """Iterations-to-difference for every registered rule on the pinned
    40-seed scenario, one ``ascent-rule[label]`` record each.

    The ISSUE-7 acceptance bar is asserted here: DeepFool's closed-form
    boundary step must find at least as many differences as momentum at
    strictly fewer mean iterations.  ``tools/bench_compare.py`` then
    holds every rule's row steady across commits, so a regression in
    any single rule fails CI's bench-smoke job.
    """
    models, seeds, hp = _scenario()
    assert tuple(label for label, _ in LEADERBOARD) == ASCENT_RULES

    def run():
        rows = {}
        for label, factory in LEADERBOARD:
            engine = AscentEngine(models, hp, LightingConstraint(),
                                  rng=73, rule=factory())
            start = time.perf_counter()
            result = engine.run(seeds)
            elapsed = time.perf_counter() - start
            ascent = [t.iterations for t in result.tests
                      if t.iterations > 0]
            rows[label] = {
                "seconds": round(elapsed, 4),
                "differences": result.difference_count,
                "mean_iterations": (round(float(np.mean(ascent)), 2)
                                    if ascent else None),
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for label, row in rows.items():
        _RECORDS.append({"name": f"ascent-rule[{label}]", **row})
    print()
    print(render_table(
        ["rule", "# diffs", "mean iterations", "seconds"],
        [[label, row["differences"],
          row["mean_iterations"] if row["mean_iterations"] is not None
          else "-", row["seconds"]] for label, row in rows.items()],
        title="[engine] iterations-to-difference leaderboard"))
    assert all(row["differences"] > 0 for row in rows.values())
    # ISSUE-7 acceptance: deepfool >= momentum differences at strictly
    # fewer mean iterations.
    assert (rows["deepfool"]["differences"]
            >= rows["momentum"]["differences"])
    assert (rows["deepfool"]["mean_iterations"]
            < rows["momentum"]["mean_iterations"])

"""Campaign scaling: wall-clock vs worker count on one seed corpus.

Runs the same sharded campaign with 1, 2, and 4 workers, three times
over in alternating order, and records the median wall-clock for each.
Two properties are asserted:

* **Determinism** — every worker count finds the identical test set and
  merged coverage (the campaign contract; changing ``workers`` may only
  change speed).
* **Scaling** — on a multi-core machine the best parallel median beats
  the serial one (with slack for pool startup); on a single-core
  machine only a generous overhead bound is enforced, since no speedup
  is physically possible there.  Medians of interleaved runs, so one
  slow stretch of a shared machine cannot decide the comparison.
"""

import os
import statistics
import time

import numpy as np

from benchmarks.conftest import SCALE, SEED
from repro.core import Campaign, LightingConstraint, PAPER_HYPERPARAMS
from repro.datasets import load_dataset
from repro.models import get_trio
from repro.utils.tables import render_table

WORKER_COUNTS = (1, 2, 4)
N_SEEDS = 120
SHARD_SIZE = 12
REPEATS = 3


def test_campaign_throughput(benchmark):
    dataset = load_dataset("mnist", scale=SCALE, seed=SEED)
    models = get_trio("mnist", scale=SCALE, seed=SEED, dataset=dataset)
    # Tile the smoke test set up to N_SEEDS so every worker count chews
    # the same, large-enough corpus.
    x = dataset.x_test
    seeds = np.concatenate([x] * -(-N_SEEDS // x.shape[0]))[:N_SEEDS]
    hp = PAPER_HYPERPARAMS["mnist"]

    def run_all():
        outcomes = {workers: [] for workers in WORKER_COUNTS}
        for repeat in range(REPEATS):
            order = WORKER_COUNTS if repeat % 2 == 0 else WORKER_COUNTS[::-1]
            for workers in order:
                campaign = Campaign(models, hp, LightingConstraint(),
                                    workers=workers, shard_size=SHARD_SIZE,
                                    seed=SEED + 29)
                start = time.perf_counter()
                result = campaign.run(seeds)
                outcomes[workers].append(
                    (result, time.perf_counter() - start))
        return outcomes

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    median = {workers: statistics.median(elapsed for _, elapsed in runs)
              for workers, runs in outcomes.items()}
    serial_result, serial_elapsed = outcomes[1][0][0], median[1]
    rows = []
    for workers in WORKER_COUNTS:
        rows.append([workers, -(-len(seeds) // SHARD_SIZE),
                     outcomes[workers][0][0].difference_count,
                     round(median[workers], 2),
                     round(serial_elapsed / median[workers], 2)])
    print()
    print(render_table(
        ["workers", "shards", "# diffs", "median s", "speedup vs 1"],
        rows, title="[campaign] wall-clock vs worker count"))

    # Determinism: worker count (and repetition) changes speed only.
    for runs in outcomes.values():
        for result, _ in runs:
            assert result.difference_count == serial_result.difference_count
            assert [t.seed_index for t in result.tests] == \
                [t.seed_index for t in serial_result.tests]
            assert result.coverage == serial_result.coverage
    assert serial_result.difference_count > 0

    # Scaling: parallel must not lose to serial where the hardware
    # allows a win.  The bound is deliberately loose — this runs in
    # tier-1 CI on shared runners, so it guards against pathological
    # fan-out overhead, not against scheduler noise.
    best_parallel = min(median[w] for w in WORKER_COUNTS[1:])
    cores = os.cpu_count() or 1
    if cores >= 2:
        assert best_parallel < serial_elapsed * 1.25, (
            f"no parallel speedup on {cores} cores: best {best_parallel:.2f}s"
            f" vs serial {serial_elapsed:.2f}s")
    else:
        # Single core: no speedup is possible; only bound the overhead.
        assert best_parallel < serial_elapsed * 2.0

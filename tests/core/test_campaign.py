"""Campaign runner: sharding, determinism across worker counts, merging.

The contract under test (docs/ARCHITECTURE.md, "Campaigns"): a campaign
is a pure function of (seed corpus, shard_size, seed) — the ``workers``
knob changes wall-clock only, never the tests found or the coverage
reached.
"""

import numpy as np
import pytest

from repro.core import (Campaign, GenerationResult, PAPER_HYPERPARAMS,
                        LightingConstraint, SingleRectOcclusion,
                        shard_corpus)
from repro.core.engine import GeneratedTest
from repro.coverage import NeuronCoverageTracker
from repro.errors import ConfigError
from repro.nn.instrumentation import PassCounter


def test_shard_corpus_layout(rng):
    seeds = rng.random((21, 3))
    shards = shard_corpus(seeds, shard_size=8, seed=5)
    assert [s.seeds.shape[0] for s in shards] == [8, 8, 5]
    assert [s.shard_index for s in shards] == [0, 1, 2]
    np.testing.assert_array_equal(
        np.concatenate([s.indices for s in shards]), np.arange(21))
    np.testing.assert_array_equal(
        np.concatenate([s.seeds for s in shards]), seeds)


def test_shard_rngs_deterministic(rng):
    seeds = rng.random((20, 3))
    a = shard_corpus(seeds, shard_size=8, seed=5)
    b = shard_corpus(seeds, shard_size=8, seed=5)
    for sa, sb in zip(a, b):
        ra = np.random.default_rng(sa.seed_seq)
        rb = np.random.default_rng(sb.seed_seq)
        np.testing.assert_array_equal(ra.integers(0, 1000, 10),
                                      rb.integers(0, 1000, 10))


def test_shard_rngs_independent_per_shard(rng):
    shards = shard_corpus(rng.random((20, 3)), shard_size=4, seed=5)
    streams = [tuple(np.random.default_rng(s.seed_seq).integers(0, 2**31, 4))
               for s in shards]
    assert len(set(streams)) == len(streams)


def test_shard_corpus_empty_corpus_yields_no_shards():
    assert shard_corpus([], shard_size=4) == []
    assert shard_corpus(np.empty((0, 28, 28, 1)), shard_size=4) == []


def test_shard_corpus_shard_larger_than_corpus_is_one_shard(rng):
    seeds = rng.random((3, 5))
    shards = shard_corpus(seeds, shard_size=99, seed=1)
    assert len(shards) == 1
    np.testing.assert_array_equal(shards[0].seeds, seeds)
    np.testing.assert_array_equal(shards[0].indices, np.arange(3))


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_empty_corpus_is_clean_empty_result(
        mnist_trio, mnist_smoke, workers):
    """Regression: an empty corpus (a drained fuzz wave, a filtered-out
    seed set) must be a no-op result, not a crash."""
    empty = np.empty((0,) + mnist_smoke.x_test.shape[1:])
    result = _campaign(mnist_trio, workers=workers).run(empty)
    assert result.difference_count == 0
    assert result.seeds_processed == 0
    assert set(result.coverage) == {m.name for m in mnist_trio}


def test_batch_engine_empty_corpus_is_clean_empty_result(mnist_trio,
                                                         mnist_smoke):
    """Regression: the vectorized engine used to die in a size-0
    reshape."""
    from repro.core import AscentEngine
    empty = np.empty((0,) + mnist_smoke.x_test.shape[1:])
    result = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                          LightingConstraint()).run(empty)
    assert result.difference_count == 0
    assert result.seeds_processed == 0
    assert result.seeds_exhausted == 0


def test_campaign_shard_larger_than_corpus_runs_single_shard(
        mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(5, np.random.default_rng(8))
    big = Campaign(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                   LightingConstraint(), shard_size=500, seed=17)
    result = big.run(seeds)
    assert result.seeds_processed == 5


def test_requires_two_models(lenet1):
    with pytest.raises(ConfigError):
        Campaign([lenet1])


def test_validates_workers_and_shard_size(mnist_trio):
    with pytest.raises(ConfigError):
        Campaign(mnist_trio, workers=0)
    with pytest.raises(ConfigError):
        Campaign(mnist_trio, shard_size=0)


def _campaign(models, workers, trackers=None):
    return Campaign(models, PAPER_HYPERPARAMS["mnist"],
                    LightingConstraint(), workers=workers, shard_size=6,
                    seed=17, trackers=trackers)


def test_workers_do_not_change_results(mnist_trio, mnist_smoke):
    """The acceptance invariant: workers=2 == workers=1, bit for bit."""
    seeds, _ = mnist_smoke.sample_seeds(24, np.random.default_rng(3))
    serial = _campaign(mnist_trio, workers=1)
    parallel = _campaign(mnist_trio, workers=2)
    rs = serial.run(seeds)
    rp = parallel.run(seeds)
    assert rs.difference_count == rp.difference_count
    assert [t.seed_index for t in rs.tests] == \
        [t.seed_index for t in rp.tests]
    for a, b in zip(rs.tests, rp.tests):
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.predictions, b.predictions)
        assert a.iterations == b.iterations
    assert rs.coverage == rp.coverage
    for ts, tp in zip(serial.trackers, parallel.trackers):
        np.testing.assert_array_equal(ts.covered, tp.covered)


def test_workers_do_not_change_pass_counts(mnist_trio, mnist_smoke):
    """Engine processes send their passes back with each shard, so a
    counter around a pooled run sees what an in-process run does."""
    seeds, _ = mnist_smoke.sample_seeds(24, np.random.default_rng(3))
    counts = []
    for workers in (1, 2):
        with PassCounter() as counter:
            _campaign(mnist_trio, workers=workers).run(seeds)
        counts.append(counter.counts())
    assert counts[0]["forwards"] and counts[0]["backwards"]
    assert counts[0] == counts[1]


def test_seed_indices_are_global(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(24, np.random.default_rng(4))
    result = _campaign(mnist_trio, workers=1).run(seeds)
    assert result.difference_count > 0
    indices = [t.seed_index for t in result.tests]
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)
    for test in result.tests:
        assert 0 <= test.seed_index < 24
        if test.iterations == 0:
            # Pre-disagreeing seeds are returned unchanged, so the global
            # index must point at the exact corpus row.
            np.testing.assert_array_equal(test.x, seeds[test.seed_index])


def test_campaign_counts_whole_corpus(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(24, np.random.default_rng(5))
    result = _campaign(mnist_trio, workers=2).run(seeds)
    assert result.seeds_processed == 24
    assert set(result.coverage) == {m.name for m in mnist_trio}


def test_campaign_merges_into_existing_trackers(mnist_trio, mnist_smoke):
    """Passed-in trackers accumulate: prior coverage survives the run."""
    seeds, _ = mnist_smoke.sample_seeds(12, np.random.default_rng(6))
    trackers = [NeuronCoverageTracker(m, threshold=0.0) for m in mnist_trio]
    trackers[0].update(seeds[:2])
    prior = trackers[0].covered.copy()
    _campaign(mnist_trio, workers=1, trackers=trackers).run(seeds)
    assert (trackers[0].covered & prior).sum() == prior.sum()


def test_shard_workers_start_from_driver_coverage(mnist_trio, mnist_smoke):
    """Regression: worker trackers used to start fresh per shard, so a
    campaign resumed over prior coverage (generate --resume, fuzz
    waves) still pointed its coverage objective at neurons earlier runs
    had already covered.  Shards must inherit the driver's coverage —
    the OR-merge back makes that lossless."""
    seeds, _ = mnist_smoke.sample_seeds(6, np.random.default_rng(11))
    trackers = [NeuronCoverageTracker(m, threshold=0.0) for m in mnist_trio]
    trackers[0].update(seeds[:2])
    prior = trackers[0].covered.copy()
    assert prior.any()
    campaign = _campaign(mnist_trio, workers=1, trackers=trackers)
    shard = shard_corpus(seeds, shard_size=6, seed=17)[0]
    outcome = campaign.execute_shard([t.state_dict() for t in trackers],
                                     shard)
    covered = np.asarray(outcome["coverage"][0]["covered"], dtype=bool)
    assert (covered & prior).sum() == prior.sum()


def test_campaign_with_per_seed_constraint(mnist_trio, mnist_smoke):
    """Occlusion constraints (per-seed random patches) survive the trip
    through worker processes and stay deterministic."""
    seeds, _ = mnist_smoke.sample_seeds(12, np.random.default_rng(7))

    def occl_campaign(workers):
        return Campaign(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                        SingleRectOcclusion(8, 8), workers=workers,
                        shard_size=4, seed=23)

    rs = occl_campaign(1).run(seeds)
    rp = occl_campaign(2).run(seeds)
    assert [t.seed_index for t in rs.tests] == \
        [t.seed_index for t in rp.tests]
    for a, b in zip(rs.tests, rp.tests):
        np.testing.assert_array_equal(a.x, b.x)


# -- GenerationResult.merge laws ----------------------------------------------
def _result_with(indices, processed=0):
    result = GenerationResult()
    for i in indices:
        result.tests.append(GeneratedTest(
            x=np.full((2,), float(i)), seed_index=i, iterations=1,
            predictions=np.array([0, 1]), seed_class=0, elapsed=0.1))
    result.seeds_processed = processed or len(indices)
    return result


def test_result_merge_orders_by_seed_index():
    merged = _result_with([5, 9]).merge(_result_with([2, 7]))
    assert [t.seed_index for t in merged.tests] == [2, 5, 7, 9]
    assert merged.seeds_processed == 4


def test_result_merge_is_order_independent():
    parts = [_result_with([4]), _result_with([0, 8]), _result_with([2])]
    ab = GenerationResult()
    for p in parts:
        ab.merge(_result_with([t.seed_index for t in p.tests]))
    ba = GenerationResult()
    for p in reversed(parts):
        ba.merge(_result_with([t.seed_index for t in p.tests]))
    assert [t.seed_index for t in ab.tests] == \
        [t.seed_index for t in ba.tests]
    assert ab.seeds_processed == ba.seeds_processed


def test_result_merge_adds_counters():
    a = _result_with([1])
    a.seeds_disagreed, a.seeds_exhausted, a.elapsed = 1, 2, 0.5
    b = _result_with([3])
    b.seeds_disagreed, b.seeds_exhausted, b.elapsed = 0, 1, 0.25
    a.merge(b)
    assert a.seeds_disagreed == 1
    assert a.seeds_exhausted == 3
    assert a.elapsed == 0.75
    assert a.coverage == {}  # fractions are not mergeable; recompute

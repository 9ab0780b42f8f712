"""Model payloads: where a campaign's shards get their models.

In-process shards (``workers=1``, :meth:`Campaign.execute_shard`) run on
the campaign's own model objects, so they rebuild nothing.  Pool worker
processes rebuild each model from its pickled payload once, when they
start, and keep it for the pool's lifetime.
:class:`repro.nn.instrumentation.PayloadCounter` counts the rebuilds
that actually happen.
"""

import os
import sys
import threading

import numpy as np
import pytest

from repro.core import (Campaign, LightingConstraint, MomentumRule,
                        PAPER_HYPERPARAMS, shard_corpus)
from repro.core import campaign as campaign_mod
from repro.corpus import FuzzSession
from repro.errors import ConfigError
from repro.nn.config import network_to_payload
from repro.nn.instrumentation import PayloadCounter


def _campaign(models, workers=1, **kwargs):
    kwargs.setdefault("seed", 17)
    return Campaign(models, PAPER_HYPERPARAMS["mnist"],
                    LightingConstraint(), workers=workers, shard_size=4,
                    **kwargs)


def _assert_same_outcome(a, b, campaign_a, campaign_b):
    """Tests and merged coverage agree byte for byte."""
    assert [t.seed_index for t in a.tests] == [t.seed_index for t in b.tests]
    for ta, tb in zip(a.tests, b.tests):
        np.testing.assert_array_equal(ta.x, tb.x)
        np.testing.assert_array_equal(ta.predictions, tb.predictions)
        assert ta.iterations == tb.iterations
    for tracker_a, tracker_b in zip(campaign_a.trackers, campaign_b.trackers):
        np.testing.assert_array_equal(tracker_a.covered, tracker_b.covered)


def test_session_waves_rebuild_no_model(tmp_path, mnist_trio, mnist_smoke):
    """Three waves, workers=1: every wave runs on the session's own
    models, so no payload is ever rebuilt."""
    session = FuzzSession(tmp_path / "c", mnist_trio,
                          PAPER_HYPERPARAMS["mnist"], LightingConstraint(),
                          wave_size=8, workers=1, shard_size=4, seed=7,
                          dataset=mnist_smoke, initial_seed_count=12)
    with PayloadCounter() as counter:
        report = session.run(3)
    assert report.waves_run == 3
    assert counter.total() == 0


def test_campaign_runs_rebuild_no_model(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(8, np.random.default_rng(3))
    campaign = _campaign(mnist_trio)
    with PayloadCounter() as counter:
        campaign.run(seeds)
        campaign.run(seeds)
        campaign.execute_shard([t.state_dict() for t in campaign.trackers],
                               shard_corpus(seeds, 4, seed=17)[0])
    assert counter.total() == 0


def test_threads_sharing_models_match_serial(mnist_trio, mnist_smoke):
    """Farm worker threads run campaigns on one shared trio.  More
    threads than cores, switching as often as the interpreter allows,
    all on the same model objects: each must equal its serial run."""
    seeds, _ = mnist_smoke.sample_seeds(8, np.random.default_rng(12))
    campaigns = [_campaign(mnist_trio, seed=i) for i in range(4)]
    results = [None] * len(campaigns)

    def run(index):
        results[index] = campaigns[index].run(seeds)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(campaigns))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index, result in enumerate(results):
        serial = _campaign(mnist_trio, seed=index)
        _assert_same_outcome(result, serial.run(seeds), campaigns[index],
                             serial)


def test_payload_digest_tracks_content(mnist_trio):
    payload = network_to_payload(mnist_trio[0])
    again = network_to_payload(mnist_trio[0])
    assert campaign_mod.payload_digest(payload) == \
        campaign_mod.payload_digest(again)
    key = sorted(payload["state"])[0]
    payload["state"][key] = payload["state"][key] + 1e-6
    assert campaign_mod.payload_digest(payload) != \
        campaign_mod.payload_digest(again)


def test_pool_reuse_is_bit_identical(mnist_trio, mnist_smoke):
    """A persistent CampaignPool is throughput-only: two runs through
    one pool equal two runs through fresh per-run pools."""
    seeds, _ = mnist_smoke.sample_seeds(12, np.random.default_rng(9))
    pooled = _campaign(mnist_trio, workers=2)
    fresh = _campaign(mnist_trio, workers=2)
    with pooled.make_pool() as pool:
        pooled_results = [pooled.run(seeds, shard_runner=pool)
                          for _ in range(2)]
    fresh_results = [fresh.run(seeds) for _ in range(2)]
    for rp, rf in zip(pooled_results, fresh_results):
        _assert_same_outcome(rp, rf, pooled, fresh)


def test_pool_rejects_mismatched_campaign(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(4, np.random.default_rng(2))
    campaign = _campaign(mnist_trio, workers=2)
    other = _campaign(mnist_trio, workers=2, rule=MomentumRule(0.8))
    with campaign.make_pool() as pool:
        with pytest.raises(ConfigError):
            other.run(seeds, shard_runner=pool)
    with pytest.raises(ConfigError):
        campaign.run(seeds, shard_runner=pool)   # closed pool
    with pytest.raises(ConfigError):              # workers=1 needs no pool
        campaign_mod.CampaignPool(campaign, workers=1)


def test_spawn_pool_matches_in_process(mnist_trio, mnist_smoke):
    """A pool under the ``spawn`` start method — whose workers share no
    memory with the driver and rebuild everything from the pickled
    payloads and spec — equals ``workers=1`` byte for byte."""
    seeds, _ = mnist_smoke.sample_seeds(12, np.random.default_rng(6))
    spawned = _campaign(mnist_trio, workers=2, mp_start_method="spawn")
    serial = _campaign(mnist_trio)
    _assert_same_outcome(spawned.run(seeds), serial.run(seeds),
                         spawned, serial)


def _probe(_):
    """Report (pid, payload rebuilds seen in this worker process)."""
    from repro.nn import instrumentation
    total = sum(c.total() for c in instrumentation._ACTIVE_PAYLOAD)
    return (os.getpid(), total)


@pytest.mark.skipif("fork" not in
                    __import__("multiprocessing").get_all_start_methods(),
                    reason="needs fork to inherit the installed counter")
def test_pooled_workers_deserialize_once_per_lifetime(mnist_trio,
                                                      mnist_smoke):
    """The cross-process pin: after three waves through one pool, every
    worker process has rebuilt each model exactly once (at initializer
    time), never once per wave.  The counter is installed *before* the
    fork, so each child inherits — and increments — its own copy, which
    the probe reads back from inside the worker."""
    seeds, _ = mnist_smoke.sample_seeds(12, np.random.default_rng(4))
    campaign = _campaign(mnist_trio, workers=2, mp_start_method="fork")
    with PayloadCounter() as counter:
        with campaign.make_pool() as pool:
            for _ in range(3):
                campaign.run(seeds, shard_runner=pool)
            probes = pool._pool.map(_probe, range(8), chunksize=1)
    # Nothing was rebuilt in the parent (workers did all the work)...
    assert counter.total() == 0
    # ...and each worker rebuilt the trio once, not 3 waves x trio.
    per_worker = dict(probes)
    assert len(per_worker) >= 1
    for pid, rebuilds in per_worker.items():
        assert rebuilds == len(mnist_trio), (
            f"worker {pid} rebuilt payloads {rebuilds} times; a pool "
            f"worker should rebuild each model once, at startup")

"""Model payloads: where a campaign's shards get their models.

In-process shards (``workers=1``, :meth:`Campaign.execute_shard`) run on
the campaign's own model objects, so they rebuild nothing.  A pool's
engine processes rebuild each model from its pickled payload once, when
they start, keep it for the pool's lifetime, and report the rebuilds to
the caller's :class:`repro.nn.instrumentation.PayloadCounter`.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (Campaign, LightingConstraint, MomentumRule,
                        PAPER_HYPERPARAMS, VanillaRule, shard_corpus)
from repro.core import campaign as campaign_mod
from repro.corpus import FuzzSession
from repro.errors import ConfigError, ReproError
from repro.nn.config import network_from_payload, network_to_payload
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
    """Farm worker threads run federate jobs' shards on one shared
    trio.  More threads than cores, switching as often as the
    interpreter allows, all on the same model objects: each must equal
    its serial run."""
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
    """A pool serves any campaign over its model objects: one engine
    process equals an in-process run, and a campaign under another rule
    runs under its own rule.  Other model objects, even with the same
    weights, and a closed pool are refused."""
    seeds, _ = mnist_smoke.sample_seeds(8, np.random.default_rng(2))
    with pytest.raises(ConfigError):
        campaign_mod.CampaignPool(mnist_trio, workers=0)
    copies = [network_from_payload(network_to_payload(m))
              for m in mnist_trio]
    with campaign_mod.CampaignPool(mnist_trio, workers=1) as pool:
        pooled, serial = _campaign(mnist_trio), _campaign(mnist_trio)
        vanilla = pooled.run(seeds, shard_runner=pool)
        _assert_same_outcome(vanilla, serial.run(seeds), pooled, serial)

        momentum = _campaign(mnist_trio, rule=MomentumRule(0.8))
        fresh = _campaign(mnist_trio, workers=2, rule=MomentumRule(0.8))
        result = momentum.run(seeds, shard_runner=pool)
        _assert_same_outcome(result, fresh.run(seeds), momentum, fresh)
        assert any(not np.array_equal(a.x, b.x)
                   for a, b in zip(result.tests, vanilla.tests))

        with pytest.raises(ConfigError):
            _campaign(copies).run(seeds, shard_runner=pool)
    with pytest.raises(ConfigError):
        pooled.run(seeds, shard_runner=pool)     # closed pool


def test_spawn_pool_matches_in_process(mnist_trio, mnist_smoke):
    """A pool's engine processes are spawned, so they share no memory
    with the caller and rebuild everything from the pickled payloads and
    each task's spec; the run equals ``workers=1`` byte for byte."""
    seeds, _ = mnist_smoke.sample_seeds(12, np.random.default_rng(6))
    spawned = _campaign(mnist_trio, workers=2)
    serial = _campaign(mnist_trio)
    _assert_same_outcome(spawned.run(seeds), serial.run(seeds),
                         spawned, serial)


def test_pooled_workers_deserialize_once_per_lifetime(mnist_trio,
                                                      mnist_smoke):
    """After three waves through one pool, each engine process has
    rebuilt each model exactly once (when it started), never once per
    wave, and reported it to the caller's counter."""
    seeds, _ = mnist_smoke.sample_seeds(12, np.random.default_rng(4))
    campaign = _campaign(mnist_trio, workers=2)
    with PayloadCounter() as counter:
        with campaign.make_pool() as pool:
            for _ in range(3):
                campaign.run(seeds, shard_runner=pool)
    assert counter.deserializations == {m.name: 2 for m in mnist_trio}


def test_pooled_waves_digest_each_model_once(mnist_trio, mnist_smoke,
                                             monkeypatch):
    """The pool takes its models' content digest when it is made; a wave
    only checks that the campaign holds the same model objects."""
    seeds, _ = mnist_smoke.sample_seeds(8, np.random.default_rng(5))
    digested = []
    real_digest = campaign_mod.payload_digest

    def counting_digest(payload):
        digested.append(payload["config"]["name"])
        return real_digest(payload)

    monkeypatch.setattr(campaign_mod, "payload_digest", counting_digest)
    campaign = _campaign(mnist_trio, workers=2)
    with campaign.make_pool() as pool:
        for _ in range(3):
            campaign.run(seeds, shard_runner=pool)
    assert sorted(digested) == sorted(m.name for m in mnist_trio)


class _KillOnceRule(VanillaRule):
    """Vanilla ascent whose first clone inside an engine process
    SIGKILLs that process (``marker`` records that one already died)."""

    def __init__(self, marker):
        super().__init__()
        self.marker = marker

    def clone(self):
        if multiprocessing.parent_process() is not None:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return super().clone()


def test_killed_engine_process_raises_and_leaves_no_process(
        tmp_path, mnist_trio, mnist_smoke):
    """An engine process SIGKILLed mid-shard: the run raises an error
    that names its exit code, and is no ``ReproError`` (a farm retries
    it), well within 60 s; the pool closes, and no process is left."""
    seeds, _ = mnist_smoke.sample_seeds(16, np.random.default_rng(8))
    campaign = _campaign(mnist_trio, workers=2,
                         rule=_KillOnceRule(str(tmp_path / "killed")))
    outcome = {}

    def run():
        try:
            campaign.run(seeds, shard_runner=pool)
        except BaseException as error:   # noqa: BLE001 — checked below
            outcome["error"] = error

    pool = campaign.make_pool()
    start = time.monotonic()
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "a dead engine process hung the run"
    assert time.monotonic() - start < 60
    error = outcome.get("error")
    assert isinstance(error, campaign_mod.EngineProcessError), error
    assert not isinstance(error, ReproError)
    assert f"code {-signal.SIGKILL}" in str(error)
    assert pool.closed
    assert multiprocessing.active_children() == []

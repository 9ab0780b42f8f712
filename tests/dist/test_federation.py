"""Federation end-to-end: N hosts converge bit-identically to one.

These tests drive real mnist campaigns (the session-cached smoke trio)
through the three federation surfaces: ledger-federated fuzz sessions
(concurrent hosts, crashed hosts, restarted hosts) and RPC shard
fan-out (healthy peer, dead peer).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import Campaign, PAPER_HYPERPARAMS
from repro.core.constraints import LightingConstraint
from repro.corpus import FuzzSession
from repro.dist import (FederatedSession, PeerShardRunner, decode_outcome,
                        encode_outcome)
from repro.farm.wire import Blob
from repro.utils.faults import InjectedFault, inject, reset_faults

WAVE, SHARD, SEED, POOL = 6, 2, 11, 8


@pytest.fixture(autouse=True)
def _clean_faults():
    reset_faults()
    yield
    reset_faults()


def make_session(path, models, dataset):
    return FuzzSession(path, models, PAPER_HYPERPARAMS["mnist"],
                       LightingConstraint(), wave_size=WAVE, workers=1,
                       shard_size=SHARD, seed=SEED, dataset=dataset,
                       initial_seed_count=POOL)


def test_two_hosts_converge_to_solo(tmp_path, mnist_trio, mnist_smoke,
                                    assert_stores_identical):
    """The acceptance-criterion core: two concurrent hosts splitting
    every wave over a shared ledger end bit-identical to workers=1."""
    make_session(tmp_path / "solo", mnist_trio, mnist_smoke).run(2)

    campaign_dir = tmp_path / "campaign"
    hosts, errors = [], []
    for name in ("hostA", "hostB"):
        session = make_session(tmp_path / name, mnist_trio, mnist_smoke)
        hosts.append(FederatedSession(session, campaign_dir, host=name))

    def run(fed):
        try:
            fed.run(2)
        except BaseException as error:     # noqa: BLE001 — surface below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(fed,)) for fed in hosts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert_stores_identical(tmp_path / "solo", tmp_path / "hostA")
    assert_stores_identical(tmp_path / "solo", tmp_path / "hostB")
    for fed in hosts:
        assert fed.completed_rounds == 2


def test_crashed_host_is_stolen_then_restart_converges(
        tmp_path, mnist_trio, mnist_smoke, assert_stores_identical):
    """Kill host A mid-wave (after it claimed a shard), let host B
    steal and finish, then restart A: everyone equals the solo run."""
    make_session(tmp_path / "solo", mnist_trio, mnist_smoke).run(1)
    campaign_dir = tmp_path / "campaign"

    # Host A dies on its second claim, leaving a claimed shard behind.
    session_a = make_session(tmp_path / "hostA", mnist_trio, mnist_smoke)
    fed_a = FederatedSession(session_a, campaign_dir, host="hostA")
    with inject("dist.shard.claim", countdown=2, action="raise"):
        with pytest.raises(InjectedFault):
            fed_a.run(1)
    assert fed_a.completed_rounds == 0      # nothing committed

    # Host B (short lease: "hostA" is another machine from the ledger's
    # point of view, so it cannot pid-check it) steals the abandoned
    # claim and completes the round alone.
    session_b = make_session(tmp_path / "hostB", mnist_trio, mnist_smoke)
    fed_b = FederatedSession(session_b, campaign_dir, host="hostB",
                             lease=0.05, poll=0.01)
    fed_b.run(1)
    assert_stores_identical(tmp_path / "solo", tmp_path / "hostB")

    # Host A restarts: the round is fully done in the ledger, so it
    # replays the merge without recomputing and converges too.
    restarted = FederatedSession(
        make_session(tmp_path / "hostA", mnist_trio, mnist_smoke),
        campaign_dir, host="hostA")
    restarted.run(1)
    assert_stores_identical(tmp_path / "solo", tmp_path / "hostA")


# -- RPC fan-out --------------------------------------------------------------
def _campaign(models):
    return Campaign(models, PAPER_HYPERPARAMS["mnist"],
                    LightingConstraint(), task="classification",
                    workers=1, shard_size=2, seed=SEED)


def _sample_seeds(dataset, n=6):
    seeds, _ = dataset.sample_seeds(n, np.random.default_rng(SEED + 1))
    return seeds


def _assert_results_equal(a, b):
    assert (a.seeds_processed, a.seeds_disagreed, a.seeds_exhausted) == \
        (b.seeds_processed, b.seeds_disagreed, b.seeds_exhausted)
    assert len(a.tests) == len(b.tests)
    for ta, tb in zip(a.tests, b.tests):
        assert ta.seed_index == tb.seed_index
        assert ta.iterations == tb.iterations
        np.testing.assert_array_equal(ta.x, tb.x)
        np.testing.assert_array_equal(ta.predictions, tb.predictions)


def test_peer_shard_runner_matches_local(live_peer, mnist_trio,
                                         mnist_smoke):
    _daemon, _server, port = live_peer
    seeds = _sample_seeds(mnist_smoke)

    local = _campaign(mnist_trio)
    want = local.run(seeds)

    remote = _campaign(mnist_trio)
    # local=False: every shard must take the RPC path, so this test
    # proves remote execution really is bit-identical (the default
    # work-conserving mode would let the driver win shards locally).
    runner = PeerShardRunner([("127.0.0.1", port)], "mnist",
                             timeout=120.0, local=False)
    got = remote.run(seeds, shard_runner=runner)

    assert not runner.failures
    assert set(runner.placements.values()) == {"127.0.0.1:%d" % port}
    _assert_results_equal(want, got)
    for ta, tb in zip(local.trackers, remote.trackers):
        np.testing.assert_array_equal(ta.state_dict()["covered"],
                                      tb.state_dict()["covered"])


def _garbage_outcome(run_shard, request):
    return {"shard_index": 0, "outcome": Blob(b"garbage")}


def _next_shards_outcome(run_shard, request):
    reply = run_shard(request)
    outcome = decode_outcome(reply["outcome"])
    outcome["shard_index"] += 1
    return {"shard_index": outcome["shard_index"],
            "outcome": Blob(encode_outcome(outcome))}


@pytest.mark.parametrize("answer, error", [
    (_garbage_outcome, "bad outcome payload"),
    (_next_shards_outcome, "with the outcome of shard"),
], ids=["garbage-bytes", "another-shards-outcome"])
def test_peer_answering_wrong_outcome_is_retired(live_peer, mnist_trio,
                                                 mnist_smoke, monkeypatch,
                                                 answer, error):
    """``ok: true`` with an outcome that is not the asked shard's
    retires the peer with a typed error; its shards run locally."""
    daemon, _server, port = live_peer
    run_shard = daemon.run_shard
    monkeypatch.setattr(daemon, "run_shard",
                        lambda request: answer(run_shard, request))
    seeds = _sample_seeds(mnist_smoke)
    want = _campaign(mnist_trio).run(seeds)

    runner = PeerShardRunner([("127.0.0.1", port)], "mnist",
                             timeout=120.0, local=False)
    got = _campaign(mnist_trio).run(seeds, shard_runner=runner)

    assert error in runner.failures[("127.0.0.1", port)]
    assert set(runner.placements.values()) == {"local"}
    _assert_results_equal(want, got)


def test_peer_shard_runner_raises_local_bugs(mnist_trio, mnist_smoke,
                                             monkeypatch):
    """A bug on the driver's side of the wire is not a dead peer: it
    fails the run instead of retiring the peer and running locally."""
    import repro.dist.coordinator as coordinator

    def broken(shard):
        raise KeyError("seed_seq")

    monkeypatch.setattr(coordinator, "encode_shard", broken)
    runner = PeerShardRunner([("127.0.0.1", 1)], "mnist", timeout=2.0,
                             local=False)
    with pytest.raises(KeyError, match="seed_seq"):
        _campaign(mnist_trio).run(_sample_seeds(mnist_smoke),
                                  shard_runner=runner)
    assert runner.failures == {}


def test_peer_shard_runner_survives_dead_peer(mnist_trio, mnist_smoke):
    """An unreachable peer is retired and its shards run locally; the
    result is indistinguishable from a purely local run."""
    seeds = _sample_seeds(mnist_smoke)
    want = _campaign(mnist_trio).run(seeds)

    campaign = _campaign(mnist_trio)
    # Port 1 on loopback: connection refused immediately.
    runner = PeerShardRunner([("127.0.0.1", 1)], "mnist", timeout=2.0)
    got = campaign.run(seeds, shard_runner=runner)

    assert ("127.0.0.1", 1) in runner.failures
    assert set(runner.placements.values()) == {"local"}
    _assert_results_equal(want, got)


def test_run_shard_verb_refuses_fingerprint_mismatch(live_peer,
                                                     mnist_trio,
                                                     mnist_smoke):
    """A driver whose models differ from the peer's zoo must be refused
    before any compute happens."""
    from repro.errors import FarmError
    from repro.farm import PeerClient
    from repro.dist.coordinator import encode_shard
    from repro.dist.sync import encode_coverage
    from repro.core.campaign import shard_corpus

    _daemon, _server, port = live_peer
    shard = shard_corpus(_sample_seeds(mnist_smoke, 2), 2, seed=SEED)[0]
    campaign = _campaign(mnist_trio)
    states = [t.state_dict() for t in campaign.trackers]
    client = PeerClient("127.0.0.1", port, timeout=60.0)
    with pytest.raises(FarmError, match="fingerprint"):
        client.run_shard({
            "dataset": "mnist", "task": "classification",
            "constraint": "default", "ascent": "vanilla",
            "fingerprint": {"models": ["NOT_THE_TRIO"]},
            "trackers": [encode_coverage(s) for s in states],
            "shard": encode_shard(shard)})

"""Federation end-to-end: N hosts converge bit-identically to one.

These tests drive real mnist campaigns (the session-cached smoke trio)
through ledger-federated fuzz sessions: concurrent hosts, crashed
hosts, restarted hosts.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import PAPER_HYPERPARAMS
from repro.core.constraints import LightingConstraint
from repro.corpus import FuzzSession
from repro.dist import FederatedSession
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

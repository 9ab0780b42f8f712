"""Shard ledger: keys, digests, outcome codec, CAS claims, stealing."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import shard_corpus
from repro.core.engine import GeneratedTest, GenerationResult
from repro.corpus.store import input_hash
from repro.dist import (ShardLedger, decode_outcome, encode_outcome,
                        round_key, shard_digest, shard_id)
from repro.errors import FarmError, ReproError


# -- identity helpers ---------------------------------------------------------
def test_round_key_int_and_seedseq():
    assert round_key(7) == "seed7"
    root = np.random.SeedSequence(42)
    child = root.spawn(3)[2]
    key = round_key(child)
    assert key.startswith("r2-")
    # Same identity on any host; different rounds never collide.
    assert key == round_key(np.random.SeedSequence(
        entropy=root.entropy, spawn_key=(2,)))
    assert key != round_key(root.spawn(1)[0])
    assert round_key(root) != round_key(np.random.SeedSequence(43))


def test_shard_id_sorts():
    ids = [shard_id(i) for i in (0, 1, 10, 100)]
    assert ids == sorted(ids)


def shard_plan(wave, shard_size):
    """The digest law's reference: a scheduled wave of entry hashes,
    split into contiguous ``shard_size`` chunks in wave order (the
    slicing :func:`repro.core.campaign.shard_corpus` applies to the
    loaded inputs), each with a SHA-256 digest over its member hashes
    joined by ``|``."""
    plan = []
    for index, start in enumerate(range(0, len(wave), shard_size)):
        hashes = list(wave[start:start + shard_size])
        digest = hashlib.sha256("|".join(hashes).encode("utf-8"))
        plan.append({"shard_index": index, "hashes": hashes,
                     "digest": digest.hexdigest()})
    return plan


def test_shard_hashes_are_entry_hashes():
    """A shard's digest is taken over its seeds' entry hashes, in shard
    order: nothing but the content of the seeds enters it."""
    rng = np.random.default_rng(8)
    seeds = rng.normal(size=(5, 4, 4))
    shards = shard_corpus(seeds, shard_size=2, seed=0)
    for shard in shards:
        hashes = [input_hash(x) for x in shard.seeds]
        digest = hashlib.sha256("|".join(hashes).encode("utf-8"))
        assert shard_digest(shard) == digest.hexdigest()


def test_shard_digest_matches_scheduler_plan():
    """The cross-layer determinism law: the digest a host computes from
    its shard's seed arrays equals the digest of the corresponding
    entry hashes in the scheduled wave — because entry hashes ARE
    ``input_hash`` of the seeds, so two hosts that scheduled the same
    wave agree on every shard's digest."""
    rng = np.random.default_rng(5)
    seeds = rng.normal(size=(7, 4, 4))
    shards = shard_corpus(seeds, shard_size=3, seed=0)
    wave = [input_hash(x) for x in seeds]
    plan = shard_plan(wave, 3)
    assert len(plan) == len(shards)
    for unit, shard in zip(plan, shards):
        assert unit["shard_index"] == shard.shard_index
        assert unit["hashes"] == [input_hash(x) for x in shard.seeds]
        assert unit["digest"] == shard_digest(shard)


# -- outcome codec ------------------------------------------------------------
def _fake_outcome(shard_index=0, n_tests=2):
    rng = np.random.default_rng(shard_index + 1)
    tests = [GeneratedTest(x=rng.normal(size=(4, 4)),
                           seed_index=3 * shard_index + i,
                           iterations=i + 1,
                           predictions=np.array([i, i, i + 1]),
                           seed_class=int(i),
                           elapsed=0.25 * i)
             for i in range(n_tests)]
    result = GenerationResult(tests=tests, seeds_processed=3,
                              seeds_disagreed=1, seeds_exhausted=0,
                              elapsed=1.5)
    covered = np.zeros(8, dtype=bool)
    covered[shard_index % 8] = True
    coverage = [{"network": "SYN_A", "total_neurons": 8,
                 "threshold": 0.25, "scaled": True,
                 "tracked": np.ones(8, dtype=bool), "covered": covered}]
    return {"shard_index": shard_index, "result": result,
            "coverage": coverage}


def _roundtrip(outcome, path):
    """``decode_outcome`` reads a file, as the ledger's result files."""
    path.write_bytes(encode_outcome(outcome))
    return decode_outcome(path)


def test_outcome_codec_roundtrip(tmp_path):
    outcome = _fake_outcome(shard_index=2, n_tests=3)
    got = _roundtrip(outcome, tmp_path / "outcome.npz")
    assert got["shard_index"] == 2
    a, b = outcome["result"], got["result"]
    assert (a.seeds_processed, a.seeds_disagreed, a.seeds_exhausted) == \
        (b.seeds_processed, b.seeds_disagreed, b.seeds_exhausted)
    assert len(b.tests) == 3
    for ta, tb in zip(a.tests, b.tests):
        np.testing.assert_array_equal(ta.x, tb.x)
        assert tb.x.dtype == ta.x.dtype
        assert (ta.seed_index, ta.iterations, ta.seed_class) == \
            (tb.seed_index, tb.iterations, tb.seed_class)
        np.testing.assert_array_equal(ta.predictions, tb.predictions)
    for ca, cb in zip(outcome["coverage"], got["coverage"]):
        np.testing.assert_array_equal(ca["covered"], cb["covered"])
        assert cb["network"] == ca["network"]


def test_outcome_codec_empty_tests(tmp_path):
    got = _roundtrip(_fake_outcome(n_tests=0), tmp_path / "outcome.npz")
    assert got["result"].tests == []


# -- the ledger ---------------------------------------------------------------
def _units(n):
    return [{"shard_id": shard_id(i), "digest": f"d{i}"} for i in range(n)]


def _garbled_result(name):
    if name == "truncated":
        whole = encode_outcome(_fake_outcome(0))
        return whole[:len(whole) // 2]
    if name == "header-not-a-record":
        buffer = io.BytesIO()
        np.savez(buffer, header=np.array('{"tests": 5}'))
        return buffer.getvalue()
    return b"not an outcome archive"


@pytest.mark.parametrize("name", ["truncated", "header-not-a-record",
                                  "not-an-archive"])
def test_garbled_result_file_is_a_typed_error_naming_it(tmp_path, name):
    ledger = ShardLedger(tmp_path / "c", "seed0", host="h1", pid=11)
    ledger.ensure(_units(1))
    sid = ledger.claim()
    os.makedirs(ledger.results_dir, exist_ok=True)
    with open(ledger.result_path(sid), "wb") as handle:
        handle.write(_garbled_result(name))
    with pytest.raises(ReproError, match=re.escape(ledger.result_path(sid))):
        ledger.load_result(sid)


def test_ledger_lifecycle(tmp_path):
    ledger = ShardLedger(tmp_path / "c", "seed0", host="h1", pid=11)
    ledger.ensure(_units(2))
    assert ledger.counts() == {"pending": 2, "claimed": 0, "done": 0}
    sid = ledger.claim()
    assert sid == shard_id(0)
    ledger.write_result(sid, _fake_outcome(0))
    ledger.mark_done(sid)
    assert not ledger.all_done()
    sid2 = ledger.claim()
    assert sid2 == shard_id(1)
    ledger.write_result(sid2, _fake_outcome(1))
    ledger.mark_done(sid2)
    assert ledger.all_done()
    assert ledger.claim() is None
    assert sorted(ledger.load_results()) == [shard_id(0), shard_id(1)]


def _claimed_entry(**fields):
    """A one-shard ledger whose claimed entry has ``fields`` replaced."""
    entry = {"digest": "d0", "status": "claimed", "host": "h1", "pid": 11,
             "claimed_at": 1000.0, **fields}
    return json.dumps({"shards": {shard_id(0): entry}}).encode("utf-8")


NOT_A_LEDGER = {
    "list": b"[]",
    "no-shards": b'{"version": 1}',
    "shards-a-list": b'{"shards": [1]}',
    "not-utf8": b"\xff\xfe",
    "truncated": b'{"version": 1, "round": "seed0", "shards": {"s',
    "entry-not-an-object": b'{"shards": {"s000000": 1}}',
    "digest-not-a-string": (b'{"shards": {"s000000": '
                            b'{"digest": 7, "status": "pending"}}}'),
    "unknown-status": (b'{"shards": {"s000000": '
                       b'{"digest": "d0", "status": "lost"}}}'),
    # A claim's fields, each garbled alone in an otherwise valid claim.
    "host-not-a-string": _claimed_entry(host=5),
    "pid-a-string": _claimed_entry(pid="11"),
    "pid-a-bool": _claimed_entry(pid=True),
    "pid-zero": _claimed_entry(pid=0),
    "pid-past-pid-range": _claimed_entry(pid=10 ** 30),
    "claimed-at-a-string": _claimed_entry(claimed_at="x"),
    "claimed-at-nan": _claimed_entry(claimed_at=float("nan")),
    "claimed-at-past-float-range": _claimed_entry(claimed_at=10 ** 400),
}


@pytest.mark.parametrize("read", ["counts", "claim", "ensure"])
@pytest.mark.parametrize("case", sorted(NOT_A_LEDGER))
def test_ledger_file_that_is_not_a_ledger_is_a_farm_error(tmp_path, case,
                                                          read):
    """Ledger writes are atomic, so a garbled file is damage to report,
    not an empty ledger to rewrite (or a shard to hand out)."""
    ledger = ShardLedger(tmp_path / "c", "seed0", host="h1", pid=11)
    with open(ledger.ledger_path, "wb") as handle:
        handle.write(NOT_A_LEDGER[case])
    call = {"counts": ledger.counts, "claim": ledger.claim,
            "ensure": lambda: ledger.ensure(_units(1))}[read]
    with pytest.raises(FarmError, match=re.escape(ledger.ledger_path)):
        call()


def test_ledger_ensure_is_idempotent_and_digest_checked(tmp_path):
    a = ShardLedger(tmp_path / "c", "seed0", host="h1", pid=11)
    b = ShardLedger(tmp_path / "c", "seed0", host="h2", pid=22)
    a.ensure(_units(3))
    b.ensure(_units(3))       # same plan: fine
    assert b.counts()["pending"] == 3
    with pytest.raises(FarmError, match="diverged"):
        b.ensure([{"shard_id": shard_id(0), "digest": "other"}])


def test_two_hosts_split_claims(tmp_path):
    # Live pid on both: claims must stay unstolen while healthy.
    a = ShardLedger(tmp_path / "c", "seed0", host="h1")
    b = ShardLedger(tmp_path / "c", "seed0", host="h2")
    a.ensure(_units(2))
    sid_a, sid_b = a.claim(), b.claim()
    assert {sid_a, sid_b} == {shard_id(0), shard_id(1)}
    assert a.claim() is None        # healthy claims are not stolen
    assert b.claim() is None


def test_fresh_claim_not_stolen_but_lease_expiry_is(tmp_path):
    now = [1000.0]
    a = ShardLedger(tmp_path / "c", "seed0", host="h1", pid=11,
                    lease=5.0, clock=lambda: now[0])
    b = ShardLedger(tmp_path / "c", "seed0", host="h2", pid=22,
                    lease=5.0, clock=lambda: now[0])
    a.ensure(_units(1))
    assert a.claim() == shard_id(0)
    assert b.claim() is None            # within lease: not stealable
    now[0] += 6.0                       # host h1 went silent
    assert b.claim() == shard_id(0)     # stolen
    b.write_result(shard_id(0), _fake_outcome(0))
    b.mark_done(shard_id(0))
    assert b.all_done()


def test_dead_local_pid_stolen_immediately(tmp_path):
    # pid 2**22+5 is far above any live pid in the test container; the
    # claim looks like the aftermath of kill -9 on this same host.
    dead = ShardLedger(tmp_path / "c", "seed0", host="h1",
                       pid=(1 << 22) + 5, lease=10_000.0)
    heir = ShardLedger(tmp_path / "c", "seed0", host="h1", pid=None,
                       lease=10_000.0)
    dead.ensure(_units(1))
    assert dead.claim() == shard_id(0)
    assert heir.claim() == shard_id(0)  # no lease wait on a dead pid


def test_mark_done_requires_result_file(tmp_path):
    ledger = ShardLedger(tmp_path / "c", "seed0", host="h1", pid=11)
    ledger.ensure(_units(1))
    ledger.claim()
    with pytest.raises(FarmError, match="no result file"):
        ledger.mark_done(shard_id(0))


def test_done_is_sticky(tmp_path):
    """A late host re-running a stolen shard re-marks done harmlessly."""
    ledger = ShardLedger(tmp_path / "c", "seed0", host="h1", pid=11)
    ledger.ensure(_units(1))
    ledger.claim()
    ledger.write_result(shard_id(0), _fake_outcome(0))
    ledger.mark_done(shard_id(0))
    ledger.write_result(shard_id(0), _fake_outcome(0))  # double execution
    ledger.mark_done(shard_id(0))
    assert ledger.counts() == {"pending": 0, "claimed": 0, "done": 1}


#: ``LEDGER_LOCK`` holders that no lease can expire, or that cannot be
#: read as a holder at all: each must be broken like a torn one.
GARBLED_LOCK_HOLDERS = {
    "not-utf8": b"\xff\xfe",
    "not-an-object": b"[1, 2]",
    "time-a-string": b'{"host": "h0", "pid": 1, "time": "x"}',
    "time-nan": b'{"host": "h0", "pid": 1, "time": NaN}',
    "time-infinite": b'{"host": "h0", "pid": 1, "time": Infinity}',
    "pid-past-pid-range": None,     # written with a fresh time below
}


@pytest.mark.parametrize("case", sorted(GARBLED_LOCK_HOLDERS))
def test_garbled_lock_holder_is_broken(tmp_path, case):
    """``claim()`` returns within a bounded time over a garbled lock."""
    ledger = ShardLedger(tmp_path / "c", "seed0", host="h1", pid=11,
                         lease=0.5)
    ledger.ensure(_units(1))
    holder = GARBLED_LOCK_HOLDERS[case]
    if holder is None:
        # Same host, so the pid is checked before the (fresh) lease.
        holder = json.dumps({"host": "h1", "pid": 10 ** 30,
                             "time": time.time()}).encode("utf-8")
    with open(ledger._lock_path, "wb") as handle:
        handle.write(holder)
    claimed = []
    thread = threading.Thread(target=lambda: claimed.append(ledger.claim()),
                              daemon=True)
    thread.start()
    thread.join(timeout=5.0)
    assert claimed == [shard_id(0)]


def test_stale_lock_file_is_broken(tmp_path):
    ledger = ShardLedger(tmp_path / "c", "seed0", host="h1", pid=11,
                         lease=0.05)
    ledger.ensure(_units(1))
    # A crashed peer left its CAS lock behind (torn write, even).
    with open(ledger._lock_path, "w", encoding="utf-8") as handle:
        handle.write("{torn")
    assert ledger.claim() == shard_id(0)


def test_ledger_from_an_earlier_build_with_hashes_loads(tmp_path):
    """Earlier builds wrote each shard's seed ``hashes`` into the ledger
    and ranked claims by them.  The field is ignored now, whatever its
    shape: such a ledger loads, and claims run in shard-id order."""
    ledger = ShardLedger(tmp_path / "c", "seed0", host="h1")
    shards = {shard_id(0): {"digest": "d0", "status": "pending",
                            "hashes": ["a"]},
              shard_id(1): {"digest": "d1", "status": "pending",
                            "hashes": 5},
              shard_id(2): {"digest": "d2", "status": "pending",
                            "hashes": ["b", 7]}}
    with open(ledger.ledger_path, "w", encoding="utf-8") as handle:
        json.dump({"version": 1, "round": "seed0", "shards": shards},
                  handle)
    ledger.ensure(_units(3))
    assert [ledger.claim() for _ in range(4)] == [
        shard_id(0), shard_id(1), shard_id(2), None]


# -- the permutation/partition property --------------------------------------
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_any_claim_schedule_merges_identically(tmp_path_factory, data):
    """Satellite (c): any permutation of host claims over any partition
    of the shards yields byte-identical ledger results vs a reference.

    Execution is a pure function of the shard (pinned by the fake
    outcomes keyed on shard index), so the property isolates exactly
    what the ledger adds: claim order, host assignment, stealing, and
    double execution must never change the merged result set.
    """
    n_shards = data.draw(st.integers(min_value=1, max_value=5),
                         label="n_shards")
    n_hosts = data.draw(st.integers(min_value=1, max_value=3),
                        label="n_hosts")
    schedule = data.draw(
        st.permutations([(s, s % n_hosts) for s in range(n_shards)]),
        label="schedule")
    root = tmp_path_factory.mktemp("ledger")

    reference = {shard_id(s): _roundtrip(_fake_outcome(s),
                                         root / f"reference{s}.npz")
                 for s in range(n_shards)}

    ledgers = [ShardLedger(root / "c", "seed0", host=f"h{h}",
                           pid=100 + h, lease=10_000.0)
               for h in range(n_hosts)]
    for ledger in ledgers:
        ledger.ensure([{"shard_id": shard_id(s), "digest": f"d{s}"}
                       for s in range(n_shards)])
    # Replay the drawn schedule: each (shard, host) step has that host
    # claim whatever the ledger offers it and execute it.  The ledger,
    # not the schedule, decides the assignment — the property is that
    # the decision cannot matter.
    for _shard, host in schedule:
        ledger = ledgers[host]
        sid = ledger.claim()
        if sid is None:
            continue
        index = int(sid[1:])
        ledger.write_result(sid, _fake_outcome(index))
        ledger.mark_done(sid)
    for ledger in ledgers:
        assert ledger.all_done()
        merged = ledger.load_results()
        assert sorted(merged) == sorted(reference)
        for sid, outcome in merged.items():
            want = reference[sid]
            assert outcome["shard_index"] == want["shard_index"]
            for ta, tb in zip(want["result"].tests,
                              outcome["result"].tests):
                np.testing.assert_array_equal(ta.x, tb.x)
            for ca, cb in zip(want["coverage"], outcome["coverage"]):
                np.testing.assert_array_equal(ca["covered"],
                                              cb["covered"])

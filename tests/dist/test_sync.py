"""Corpus sync laws: idempotent, commutative, crash-safe, wire-safe."""

from __future__ import annotations

import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusStore
from repro.corpus.store import coverage_from_bytes, coverage_to_bytes
from repro.dist import (LocalSource, RemoteSource, decode_array,
                        decode_coverage, encode_array, encode_coverage,
                        pull)
from repro.errors import ConfigError, FarmError, ReproError
from repro.farm import PeerClient
from repro.utils.faults import InjectedFault, inject, reset_faults


@pytest.fixture(autouse=True)
def _clean_faults():
    reset_faults()
    yield
    reset_faults()


def test_array_codec_roundtrip():
    rng = np.random.default_rng(3)
    for arr in (rng.normal(size=(5, 4)),
                rng.normal(size=(2, 3, 3)).astype(np.float32),
                np.arange(7, dtype=np.int64)):
        got = decode_array(encode_array(arr))
        assert got.dtype == arr.dtype
        np.testing.assert_array_equal(got, arr)


def test_coverage_codec_roundtrip(synth_coverage):
    state = synth_coverage((1, 3, 5))
    got = decode_coverage(encode_coverage(state))
    assert got["network"] == state["network"]
    np.testing.assert_array_equal(got["covered"], state["covered"])
    # And the public byte helpers are the exact committed npz format.
    got2 = coverage_from_bytes(coverage_to_bytes(state))
    np.testing.assert_array_equal(got2["covered"], state["covered"])


def test_pull_is_idempotent(tmp_path, make_store, assert_stores_identical):
    make_store(tmp_path / "src", 6, seed=1, covered_idx=(0, 2))
    dest = CorpusStore(tmp_path / "dest")
    assert pull(dest, tmp_path / "src") == 6
    assert pull(dest, tmp_path / "src") == 0
    assert_stores_identical(tmp_path / "src", tmp_path / "dest")


def test_pull_is_commutative(tmp_path, make_store):
    """a←b then b←a yields the same union corpus + OR'd coverage."""
    make_store(tmp_path / "a", 4, seed=1, covered_idx=(0, 1))
    make_store(tmp_path / "b", 4, seed=2, covered_idx=(6, 7))
    a, b = CorpusStore(tmp_path / "a"), CorpusStore(tmp_path / "b")
    pull(a, tmp_path / "b")
    pull(b, tmp_path / "a")
    assert {e["hash"] for e in a.entries()} == \
        {e["hash"] for e in b.entries()}
    np.testing.assert_array_equal(
        a.coverage_states()["SYN_A"]["covered"],
        b.coverage_states()["SYN_A"]["covered"])
    assert a.coverage_states()["SYN_A"]["covered"][[0, 1, 6, 7]].all()


def test_pull_refuses_mixed_configs(tmp_path, make_store, synth_config):
    make_store(tmp_path / "src", 2)
    dest = CorpusStore(tmp_path / "dest")
    other = dict(synth_config, models=["OTHER"])
    dest.bind_config(other)
    with pytest.raises(ConfigError):
        pull(dest, tmp_path / "src")
    assert len(dest) == 0


def test_pull_crash_mid_transfer_converges(tmp_path, make_store,
                                           assert_stores_identical):
    """A sync killed between entries resumes to the same final state."""
    make_store(tmp_path / "src", 5, covered_idx=(0, 4))
    dest = CorpusStore(tmp_path / "dest")
    with inject("dist.pull.entry", countdown=3, action="raise"):
        with pytest.raises(InjectedFault):
            pull(dest, tmp_path / "src")
    # Two entries landed, nothing committed — and the re-pull converges.
    assert pull(CorpusStore(tmp_path / "dest"), tmp_path / "src") == 3
    assert_stores_identical(tmp_path / "src", tmp_path / "dest")


def test_pull_crash_before_commit_converges(tmp_path, make_store,
                                            assert_stores_identical):
    """All entries in, coverage commit missed: re-pull adds 0, commits."""
    make_store(tmp_path / "src", 3, covered_idx=(2,))
    dest = CorpusStore(tmp_path / "dest")
    with inject("dist.sync.mid", countdown=1, action="raise"):
        with pytest.raises(InjectedFault):
            pull(dest, tmp_path / "src")
    assert pull(CorpusStore(tmp_path / "dest"), tmp_path / "src") == 0
    assert_stores_identical(tmp_path / "src", tmp_path / "dest")


def test_noop_pull_skips_coverage_commit(tmp_path, make_store):
    """Satellite: an idle mirror sync (remote coverage ⊆ local) must not
    bump the checkpoint generation or rewrite snapshots."""
    make_store(tmp_path / "src", 4, covered_idx=(0, 2))
    pull(CorpusStore(tmp_path / "dest"), tmp_path / "src")
    gen = CorpusStore(tmp_path / "dest").snapshot()["generation"]
    assert pull(CorpusStore(tmp_path / "dest"), tmp_path / "src") == 0
    assert CorpusStore(tmp_path / "dest").snapshot()["generation"] == gen


def test_pull_loads_dest_coverage_once(tmp_path, make_store):
    make_store(tmp_path / "src", 3, covered_idx=(2,))
    dest = make_store(tmp_path / "dest", 1, seed=1, covered_idx=(0,))
    loads = []
    committed = dest.coverage_states

    def counted():
        loads.append(1)
        return committed()

    dest.coverage_states = counted
    assert pull(dest, tmp_path / "src") == 3
    assert len(loads) == 1
    assert CorpusStore(tmp_path / "dest").coverage_states()["SYN_A"][
        "covered"][[0, 2]].all()


def test_pull_rejects_a_corrupt_source_entry(tmp_path, make_store):
    """A source input whose bytes no longer match its name is refused
    before it is written: the destination holds only hashes the source
    names, and nothing is committed."""
    src = make_store(tmp_path / "src", 3, covered_idx=(0, 2))
    named = [entry["hash"] for entry in src.entries()]
    np.save(src.input_path(named[1]), np.ones((4, 4)))
    dest = CorpusStore(tmp_path / "dest")
    with pytest.raises(ReproError, match="corrupt"):
        pull(dest, tmp_path / "src")
    dest = CorpusStore(tmp_path / "dest")
    assert {entry["hash"] for entry in dest.entries()} == {named[0]}
    # No stray .npy either: the refused input was never written.
    assert {n[:-4] for n in os.listdir(dest.inputs_dir)} == {named[0]}
    assert dest.snapshot()["generation"] == 0
    assert dest.coverage_states() == {}


def test_pull_names_an_unreadable_source_input(tmp_path, make_store):
    """A source input that does not load as a numeric array is a typed
    error naming the file, not a numpy ValueError."""
    def text_array(path):
        np.save(path, np.array(["a", "b"]))

    def garbage(path):
        with open(path, "wb") as handle:
            handle.write(b"not an npy array")

    for spoil in (text_array, garbage):
        src = make_store(tmp_path / spoil.__name__, 3)
        path = src.input_path(src.entries()[1]["hash"])
        spoil(path)
        with pytest.raises(ReproError, match=re.escape(path)):
            pull(CorpusStore(tmp_path / f"{spoil.__name__}-dest"),
                 tmp_path / spoil.__name__)


def test_pull_bringing_no_new_coverage_commits_nothing(tmp_path,
                                                      make_store):
    """A pull that lands entries but no new coverage does not commit: a
    landed entry is durable without one, and a fresh handle sees it."""
    dest = make_store(tmp_path / "dest", 2, seed=1, covered_idx=(0,))
    gen = dest.snapshot()["generation"]
    # Same rng seed: the source extends the store by a suffix and
    # covers nothing the store has not covered.
    source = make_store(tmp_path / "more", 4, seed=1, covered_idx=(0,))
    commits = []
    commit = dest.commit

    def counted_commit(*args, **kwargs):
        commits.append(kwargs)
        return commit(*args, **kwargs)

    dest.commit = counted_commit
    assert pull(dest, tmp_path / "more") == 2
    assert commits == []
    fresh = CorpusStore(tmp_path / "dest")
    assert fresh.entries() == source.entries()
    assert fresh.snapshot()["generation"] == gen


def test_pull_commits_when_coverage_is_new(tmp_path, make_store):
    """The skip is only for no-ops: new remote coverage still commits."""
    make_store(tmp_path / "a", 2, seed=1, covered_idx=(0,))
    make_store(tmp_path / "b", 2, seed=2, covered_idx=(7,))
    a = CorpusStore(tmp_path / "a")
    gen = a.snapshot()["generation"]
    pull(a, tmp_path / "b")
    a = CorpusStore(tmp_path / "a")
    assert a.snapshot()["generation"] == gen + 1
    assert a.coverage_states()["SYN_A"]["covered"][[0, 7]].all()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_batched_pull_converges_identically(tmp_path_factory, make_store,
                                            assert_stores_identical, data):
    """Tentpole property: for any batch size, with a crash injected at
    any wire round-trip and the pull re-run, the result is byte-identical
    to a per-entry (batch=1) pull.  Batching is transport only."""
    n_entries = data.draw(st.integers(min_value=1, max_value=8),
                          label="n_entries")
    batch = data.draw(st.integers(min_value=1, max_value=5), label="batch")
    crash_at = data.draw(st.one_of(st.none(),
                                   st.integers(min_value=1, max_value=4)),
                         label="crash_at")
    root = tmp_path_factory.mktemp("batched")
    make_store(root / "src", n_entries, seed=3, covered_idx=(1, 6))
    pull(CorpusStore(root / "ref"), root / "src", batch=1)

    dest = CorpusStore(root / "dest")
    if crash_at is not None:
        with inject("dist.pull.batch", countdown=crash_at, action="raise"):
            try:
                pull(dest, root / "src", batch=batch)
            except InjectedFault:
                pass    # died mid-sync with crash_at-1 batches landed
    pull(CorpusStore(root / "dest"), root / "src", batch=batch)
    assert_stores_identical(root / "ref", root / "dest")


def test_local_source_describe(tmp_path, make_store, synth_config):
    make_store(tmp_path / "src", 3)
    source = LocalSource(tmp_path / "src")
    manifest = source.manifest()
    assert len(manifest["entries"]) == 3
    assert manifest["config"] == synth_config


# -- over the wire -----------------------------------------------------------
def test_remote_pull(tmp_path, make_store, live_peer,
                     assert_stores_identical):
    daemon, _server, port = live_peer
    make_store(daemon.store_path("shared"), 5, covered_idx=(1, 2))

    dest = CorpusStore(tmp_path / "local")
    source = RemoteSource("127.0.0.1", port, "shared")
    assert pull(dest, source) == 5
    assert pull(CorpusStore(tmp_path / "local"), source) == 0
    assert_stores_identical(daemon.store_path("shared"),
                            tmp_path / "local")


def test_remote_pull_round_trips_are_batched(tmp_path, make_store,
                                             live_peer,
                                             assert_stores_identical):
    """The wire cost contract: one manifest + ceil(entries/batch)
    fetches on a cold pull, and a warm re-pull is manifest-only (the
    ``have`` filter leaves nothing to fetch) over the same pooled
    connection."""
    daemon, _server, port = live_peer
    make_store(daemon.store_path("shared"), 7, covered_idx=(1, 2))
    source = RemoteSource("127.0.0.1", port, "shared")
    assert pull(CorpusStore(tmp_path / "local"), source, batch=3) == 7
    cold = 1 + math.ceil(7 / 3)
    assert source.client.requests == cold
    assert pull(CorpusStore(tmp_path / "local"), source, batch=3) == 0
    assert source.client.requests == cold + 1   # delta manifest only
    assert source.client.reconnects == 0        # one channel throughout
    assert_stores_identical(daemon.store_path("shared"),
                            tmp_path / "local")


def test_batched_pull_crash_mid_batch_converges(tmp_path, make_store,
                                                live_peer,
                                                assert_stores_identical):
    """The remote flavour of the convergence property: a pull killed at
    the second wire round-trip resumes over TCP to the identical store."""
    daemon, _server, port = live_peer
    make_store(daemon.store_path("shared"), 5, covered_idx=(0, 4))
    source = RemoteSource("127.0.0.1", port, "shared")
    with inject("dist.pull.batch", countdown=2, action="raise"):
        with pytest.raises(InjectedFault):
            pull(CorpusStore(tmp_path / "local"), source, batch=2)
    assert pull(CorpusStore(tmp_path / "local"), source, batch=2) == 3
    assert_stores_identical(daemon.store_path("shared"),
                            tmp_path / "local")


class _StubPeer:
    """A PeerClient stand-in that answers the store verbs with fixed
    replies."""

    host, port = "stub", 7

    def __init__(self, manifest, entries):
        self.manifest, self.entries = manifest, entries

    def store_manifest(self, store, have=None):
        return self.manifest

    def store_entries(self, store, hashes):
        return self.entries(hashes)


def _good_replies(src):
    """The manifest and store-entries replies a daemon serving ``src``
    would send."""
    manifest = {"config": src.config, "generation": 1,
                "entries": src.entries(),
                "coverage": {name: coverage_to_bytes(state) for name, state
                             in src.coverage_states().items()}}

    def entries(hashes):
        return {"entries": [{"hash": h,
                             "data": bytes(encode_array(src.load_input(h)))}
                            for h in hashes]}
    return manifest, entries


BAD_PEER_REPLIES = {
    "entries-int-list": ({"entries": [1]}, None),
    "entries-int": ({"entries": 5}, None),
    "entry-without-hash": ({"entries": [{"kind": "seed"}]}, None),
    "coverage-list": ({"coverage": [1]}, None),
    "config-int": ({"config": 3}, None),
    "entries-reply-short": ({}, lambda hashes: {"entries": []}),
}


@pytest.mark.parametrize("case", sorted(BAD_PEER_REPLIES))
def test_pull_refuses_a_wrong_shaped_peer_reply(tmp_path, make_store, case):
    """What another process replies is typed before it is read: a
    wrong-shaped manifest or a batch without one array per requested
    hash is a ReproError naming the peer, and nothing lands."""
    manifest, entries = _good_replies(make_store(tmp_path / "src", 3))
    patch, short = BAD_PEER_REPLIES[case]
    source = RemoteSource("127.0.0.1", 7, "s")
    source.client = _StubPeer(dict(manifest, **patch), short or entries)
    dest = CorpusStore(tmp_path / "dest")
    with pytest.raises(ReproError, match=re.escape("stub:7/s")):
        pull(dest, source)
    dest = CorpusStore(tmp_path / "dest")
    assert len(dest) == 0
    assert dest.config in (None, manifest["config"])    # never poisoned


def test_remote_verbs_reject_unknown_store(live_peer):
    _daemon, _server, port = live_peer
    client = PeerClient("127.0.0.1", port)
    with pytest.raises(FarmError):
        client.store_manifest("nope")
    with pytest.raises(FarmError):
        client.store_entry("nope", "deadbeef")


def test_remote_pull_rejects_a_corrupt_entry(tmp_path, make_store,
                                             live_peer):
    """An input rewritten under its own name in the daemon's store is
    refused by content address on arrival: nothing lands locally."""
    daemon, _server, port = live_peer
    shared = make_store(daemon.store_path("shared"), 3)
    np.save(shared.input_path(shared.entries()[0]["hash"]), np.ones((4, 4)))
    source = RemoteSource("127.0.0.1", port, "shared")
    with pytest.raises(ReproError, match="corrupt"):
        pull(CorpusStore(tmp_path / "local"), source)
    assert len(CorpusStore(tmp_path / "local")) == 0

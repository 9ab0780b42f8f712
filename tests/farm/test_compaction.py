"""Background compaction: compact-merge / compact-distill jobs, spec
validation for the new kinds, federate jobs, and the housekeeper."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.corpus import CorpusStore
from repro.errors import FarmError
from repro.farm import FarmDaemon, normalize_spec
from repro.models import TRIOS


def make_daemon(tmp_path, model_source, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("backoff_base", 0.05)
    return FarmDaemon(str(tmp_path / "root"), model_source=model_source,
                      **kwargs)


def finished(daemon, job_id):
    return lambda: daemon.status(job_id)["status"] in ("done", "failed")


def _seed_store(path, n, seed=0):
    rng = np.random.default_rng(seed)
    store = CorpusStore(path)
    for i in range(n):
        store.add_entry(rng.normal(size=(4, 4)), "seed", origin=int(i))
    return store


# -- spec validation ----------------------------------------------------------
def test_federate_spec_requires_campaign():
    with pytest.raises(FarmError, match="campaign"):
        normalize_spec({"store": "s", "kind": "federate"})
    clean = normalize_spec({"store": "s", "kind": "federate",
                            "campaign": "/shared/c"})
    assert clean["campaign"] == "/shared/c"


def test_lease_is_federate_only_and_positive():
    with pytest.raises(FarmError, match="lease"):
        normalize_spec({"store": "s", "kind": "fuzz", "lease": 5})
    for lease in (0, float("nan"), float("inf")):
        with pytest.raises(FarmError, match="lease"):
            normalize_spec({"store": "s", "kind": "federate",
                            "campaign": "/c", "lease": lease})
    clean = normalize_spec({"store": "s", "kind": "federate",
                            "campaign": "/c", "lease": 5})
    assert clean["lease"] == 5.0


def test_campaign_rejected_on_other_kinds():
    with pytest.raises(FarmError, match="campaign"):
        normalize_spec({"store": "s", "kind": "fuzz", "campaign": "/c"})


def test_compact_merge_spec_requires_sources():
    with pytest.raises(FarmError, match="source"):
        normalize_spec({"store": "archive", "kind": "compact-merge"})
    with pytest.raises(FarmError, match="source"):
        normalize_spec({"store": "archive", "kind": "compact-merge",
                        "sources": []})
    with pytest.raises(FarmError, match="destination"):
        normalize_spec({"store": "archive", "kind": "compact-merge",
                        "sources": ["archive"]})
    with pytest.raises(FarmError, match="bad source store name"):
        normalize_spec({"store": "archive", "kind": "compact-merge",
                        "sources": ["../escape"]})
    clean = normalize_spec({"store": "archive", "kind": "compact-merge",
                            "sources": ["a", "b"]})
    assert clean["sources"] == ["a", "b"]


def test_sources_rejected_on_other_kinds():
    with pytest.raises(FarmError, match="sources"):
        normalize_spec({"store": "s", "kind": "generate",
                        "sources": ["a"]})


def test_compact_every_validated(tmp_path, model_source):
    with pytest.raises(FarmError, match="compact_every"):
        FarmDaemon(str(tmp_path / "bad"), model_source=model_source,
                   compact_every=0)


# -- compact-merge ------------------------------------------------------------
def test_compact_merge_folds_tenants_into_archive(tmp_path, model_source,
                                                  wait_for):
    daemon = make_daemon(tmp_path, model_source).start()
    _seed_store(daemon.store_path("tenant-a"), 4, seed=1)
    _seed_store(daemon.store_path("tenant-b"), 3, seed=2)
    job = daemon.submit({"store": "archive", "kind": "compact-merge",
                         "sources": ["tenant-a", "tenant-b"]})
    assert wait_for(finished(daemon, job.job_id))
    record = daemon.status(job.job_id)
    assert record["status"] == "done", record["error"]
    assert record["result"] == {"merged_sources": 2, "new_entries": 7,
                                "entries": 7}
    archive = CorpusStore(daemon.store_path("archive"))
    want = {e["hash"]
            for name in ("tenant-a", "tenant-b")
            for e in CorpusStore(daemon.store_path(name)).entries()}
    assert {e["hash"] for e in archive.entries()} == want

    # Replaying the merge is a no-op: snapshot-merge is idempotent.
    again = daemon.submit({"store": "archive", "kind": "compact-merge",
                           "sources": ["tenant-a", "tenant-b"]})
    assert wait_for(finished(daemon, again.job_id))
    assert daemon.status(again.job_id)["result"]["new_entries"] == 0
    assert daemon.drain(timeout=30)


def test_compact_merge_missing_source_parks_permanently(tmp_path,
                                                        model_source,
                                                        wait_for):
    daemon = make_daemon(tmp_path, model_source).start()
    job = daemon.submit({"store": "archive", "kind": "compact-merge",
                         "sources": ["ghost"]})
    assert wait_for(finished(daemon, job.job_id))
    record = daemon.status(job.job_id)
    assert record["status"] == "failed"
    assert "ghost" in record["error"]
    assert record["attempts"] == 1      # deterministic: no retry burn
    assert daemon.drain(timeout=30)


# -- compact-distill ----------------------------------------------------------
def test_compact_distill_shrinks_after_generate(tmp_path, model_source,
                                                wait_for):
    daemon = make_daemon(tmp_path, model_source).start()
    gen = daemon.submit({"store": "t", "kind": "generate", "seeds": 10,
                         "shard_size": 4, "seed": 3})
    assert wait_for(finished(daemon, gen.job_id))
    assert daemon.status(gen.job_id)["status"] == "done"
    store = CorpusStore(daemon.store_path("t"))
    before = len(store)
    tests_before = len(store.entries(kind="test"))

    job = daemon.submit({"store": "t", "kind": "compact-distill",
                         "dataset": "mnist"})
    assert wait_for(finished(daemon, job.job_id))
    record = daemon.status(job.job_id)
    assert record["status"] == "done", record["error"]
    assert record["result"]["kept_tests"] + record["result"]["dropped"] \
        == tests_before
    store = CorpusStore(daemon.store_path("t"))
    assert len(store) == before - record["result"]["dropped"]
    assert len(store.entries(kind="test")) == record["result"]["kept_tests"]
    assert daemon.drain(timeout=30)


def test_compact_distill_shows_in_the_next_store_manifest(
        tmp_path, model_source, wait_for):
    """The daemon serves store verbs from one long-lived read handle per
    store; a distill's rewrite of the entry log is in the next reply."""
    from repro.corpus.store import coverage_to_bytes
    daemon = make_daemon(tmp_path, model_source).start()
    gen = daemon.submit({"store": "t", "kind": "generate", "seeds": 40,
                         "shard_size": 8, "seed": 3})
    assert wait_for(finished(daemon, gen.job_id))
    before = daemon.store_manifest("t")
    job = daemon.submit({"store": "t", "kind": "compact-distill",
                         "dataset": "mnist"})
    assert wait_for(finished(daemon, job.job_id))
    record = daemon.status(job.job_id)
    assert record["status"] == "done", record["error"]
    assert record["result"]["dropped"] > 0
    after = daemon.store_manifest("t")
    fresh = CorpusStore(daemon.store_path("t"), create=False).snapshot()
    assert after["entries"] == fresh["entries"]
    assert len(after["entries"]) == \
        len(before["entries"]) - record["result"]["dropped"]
    assert after["generation"] == fresh["generation"]
    assert {name: bytes(blob) for name, blob in after["coverage"].items()} \
        == {name: coverage_to_bytes(state)
            for name, state in fresh["coverage"].items()}
    assert daemon.drain(timeout=30)


def test_concurrent_store_manifests_each_see_a_whole_snapshot(
        tmp_path, model_source):
    """FarmServer answers each connection on its own thread, and they
    share the store's read handle: every reply is a complete prefix of
    the log while a writer appends to it.  Threads switch every
    microsecond here, so an unlocked handle fails this reliably."""
    daemon = make_daemon(tmp_path, model_source)
    store = _seed_store(daemon.store_path("t"), 400)
    hashes = [entry["hash"] for entry in store.entries()]
    replies, errors = [], []

    def ask():
        try:
            for _ in range(25):
                replies.append(daemon.store_manifest("t"))
        except Exception as error:      # noqa: BLE001 — reported below
            errors.append(error)

    threads = [threading.Thread(target=ask) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        rng = np.random.default_rng(9)
        for i in range(150):
            hashes.append(store.add_entry(rng.normal(size=(4, 4)), "seed",
                                          origin=1000 + i)[0])
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(replies) == 200
    for reply in replies:
        got = [entry["hash"] for entry in reply["entries"]]
        assert len(got) >= 400 and got == hashes[:len(got)]
    assert [entry["hash"] for entry
            in daemon.store_manifest("t")["entries"]] == hashes
    assert daemon.drain(timeout=30)


def test_housekeeper_schedules_distill(tmp_path, model_source, wait_for):
    """--compact-every: the daemon compacts its own tenants unattended."""
    daemon = make_daemon(tmp_path, model_source,
                         compact_every=0.1).start()
    gen = daemon.submit({"store": "t", "kind": "generate", "seeds": 10,
                         "shard_size": 4, "seed": 3})
    assert wait_for(finished(daemon, gen.job_id))

    def distilled():
        return [j for j in daemon.status()
                if j["spec"]["kind"] == "compact-distill"
                and j["status"] == "done"]

    assert wait_for(distilled, timeout=60.0)
    # The sweep does not re-submit while one is already queued/running,
    # and an idle farm does not accumulate failed compactions.
    assert not [j for j in daemon.status()
                if j["spec"]["kind"].startswith("compact")
                and j["status"] == "failed"]
    assert daemon.drain(timeout=30)


def test_daemon_without_compact_every_runs_no_housekeeper(tmp_path,
                                                          model_source):
    """The housekeeper exists for the compaction sweep alone: a daemon
    started without ``compact_every`` starts its workers and nothing
    else, and still drains."""
    import threading
    before = set(threading.enumerate())
    daemon = make_daemon(tmp_path, model_source).start()
    try:
        started = set(threading.enumerate()) - before
        assert daemon._housekeeper is None
        assert sorted(t.name for t in started
                      if t.name.startswith("farm-")) == [
            f"farm-worker-{i}" for i in range(daemon.workers)]
    finally:
        assert daemon.drain(timeout=30)


def test_sweep_skips_stores_without_dataset(tmp_path, model_source):
    """A store with no config (nothing committed) cannot be distilled;
    the sweep must skip it rather than submit a doomed job."""
    daemon = make_daemon(tmp_path, model_source, compact_every=60.0)
    _seed_store(daemon.store_path("raw"), 2)    # no config, no tests
    assert daemon._compact_sweep() == []
    assert daemon.drain(timeout=30)


def test_sweep_skips_a_garbled_store_and_compacts_the_next(tmp_path,
                                                           model_source):
    """A store whose ``meta.jsonl`` holds a line that is not an entry
    record is skipped like one that fails to open: the sweep still
    submits the distill of every store sorted after it."""
    daemon = make_daemon(tmp_path, model_source, compact_every=60.0)
    garbled = _seed_store(daemon.store_path("a"), 1)
    with open(garbled.meta_path, "a") as fh:
        fh.write("[1, 2]\n")
    store = _seed_store(daemon.store_path("b"), 1)
    store.add_entry(np.ones((4, 4)), "test", origin=0)
    store.bind_config({"models": list(TRIOS["mnist"])})
    submitted = daemon._compact_sweep()
    assert [daemon.status(job_id)["spec"] for job_id in submitted] == [
        normalize_spec({"kind": "compact-distill", "store": "b",
                        "dataset": "mnist"})]
    assert daemon.drain(timeout=30)

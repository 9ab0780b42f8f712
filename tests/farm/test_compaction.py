"""Background compaction: compact-merge / compact-distill jobs, spec
validation for the new kinds, federate jobs, and the housekeeper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus import CorpusStore
from repro.errors import FarmError
from repro.farm import FarmDaemon, normalize_spec


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


def test_housekeeper_gossips_without_compaction(tmp_path, model_source,
                                                wait_for, monkeypatch):
    """Peer gossip — and the auto-discovery it feeds — must not require
    opting into compaction: a daemon with no ``compact_every`` still
    runs its housekeeper, just without the compaction sweep."""
    import threading

    import repro.farm.daemon as daemon_mod
    monkeypatch.setattr(daemon_mod, "_GOSSIP_INTERVAL", 0.05)
    daemon = make_daemon(tmp_path, model_source)
    polled = threading.Event()
    monkeypatch.setattr(daemon, "poll_peers", polled.set)
    sweeps = []
    monkeypatch.setattr(daemon, "_compact_sweep",
                        lambda: sweeps.append(1))
    daemon.start()
    try:
        assert wait_for(polled.is_set)
        assert not sweeps           # compaction stayed opt-in
    finally:
        assert daemon.drain(timeout=30)


def test_sweep_skips_stores_without_dataset(tmp_path, model_source):
    """A store with no config (nothing committed) cannot be distilled;
    the sweep must skip it rather than submit a doomed job."""
    daemon = make_daemon(tmp_path, model_source, compact_every=60.0)
    _seed_store(daemon.store_path("raw"), 2)    # no config, no tests
    assert daemon._compact_sweep() == []
    assert daemon.drain(timeout=30)

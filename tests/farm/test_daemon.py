"""FarmDaemon in-process: multi-tenant execution, drain, retries,
backpressure, and jobs running on the daemon's loaded models."""

import json
import os

import pytest

from repro.core import PAPER_HYPERPARAMS, constraint_for_dataset
from repro.corpus import CorpusStore, FuzzSession
from repro.farm import FarmDaemon, QueueSaturatedError, StoreLockedError
from repro.farm.locks import LOCK_NAME
from repro.nn.instrumentation import PayloadCounter
from repro.utils.faults import inject

SPEC = {"store": "tenant-a", "kind": "fuzz", "rounds": 2, "seeds": 12,
        "wave_size": 6, "shard_size": 4, "seed": 7}


def make_daemon(tmp_path, model_source, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("backoff_base", 0.05)
    return FarmDaemon(str(tmp_path / "root"), model_source=model_source,
                      **kwargs)


def reference_store(path, models, dataset, spec=SPEC):
    """What the daemon's fuzz job should produce, run directly."""
    FuzzSession(str(path), models, PAPER_HYPERPARAMS["mnist"],
                constraint_for_dataset(dataset, kind="default"),
                task=dataset.task, wave_size=spec["wave_size"], workers=1,
                shard_size=spec["shard_size"], seed=spec["seed"],
                dataset=dataset,
                initial_seed_count=spec["seeds"]).run(spec["rounds"])
    return str(path)


def finished(daemon, job_id):
    return lambda: daemon.status(job_id)["status"] in ("done", "failed")


def test_two_tenants_run_concurrently_and_match_references(
        tmp_path, model_source, mnist_trio, mnist_smoke, wait_for,
        assert_stores_identical):
    """The multi-tenant contract: two stores fuzz side by side, and each
    farm-built corpus is bit-identical to a direct FuzzSession run."""
    daemon = make_daemon(tmp_path, model_source).start()
    a = daemon.submit(dict(SPEC, store="tenant-a"))
    b = daemon.submit(dict(SPEC, store="tenant-b", seed=11))
    assert wait_for(finished(daemon, a.job_id))
    assert wait_for(finished(daemon, b.job_id))
    assert daemon.status(a.job_id)["status"] == "done"
    assert daemon.status(b.job_id)["status"] == "done"
    assert daemon.drain(timeout=30)

    assert_stores_identical(
        daemon.store_path("tenant-a"),
        reference_store(tmp_path / "ref_a", mnist_trio, mnist_smoke))
    assert_stores_identical(
        daemon.store_path("tenant-b"),
        reference_store(tmp_path / "ref_b", mnist_trio, mnist_smoke,
                        dict(SPEC, seed=11)))


def test_generate_job_absorbs_into_store(tmp_path, model_source, wait_for):
    daemon = make_daemon(tmp_path, model_source).start()
    job = daemon.submit({"store": "gen", "kind": "generate", "seeds": 8,
                         "shard_size": 4, "seed": 3})
    assert wait_for(finished(daemon, job.job_id))
    record = daemon.status(job.job_id)
    assert record["status"] == "done"
    assert record["result"]["seeds_processed"] == 8
    store = CorpusStore(daemon.store_path("gen"))
    assert len(store.entries(kind="seed")) == 8
    assert len(store.entries(kind="test")) == record["result"]["new_tests"]
    assert store.coverage_states()          # coverage committed
    assert daemon.drain(timeout=30)


def test_graceful_drain_releases_at_wave_boundary_and_resumes(
        tmp_path, model_source, mnist_trio, mnist_smoke, wait_for,
        assert_stores_identical):
    """Drain mid-job: the wave in flight finishes, the job returns to
    queued with no attempt burned, and a later daemon completes it to a
    corpus bit-identical to an uninterrupted run."""
    spec = dict(SPEC, rounds=8)
    daemon = make_daemon(tmp_path, model_source, workers=1).start()
    job = daemon.submit(spec)
    store_path = daemon.store_path(spec["store"])

    def some_progress():
        state = CorpusStore(store_path).fuzz_state()
        return state is not None and state["completed_rounds"] >= 1
    assert wait_for(some_progress)
    assert daemon.drain(timeout=60)

    record = daemon.status(job.job_id)
    partial = CorpusStore(store_path).fuzz_state()["completed_rounds"]
    if record["status"] == "done":
        pytest.skip("job finished before drain landed; nothing released")
    assert record["status"] == "queued"
    assert record["attempts"] == 0
    assert 1 <= partial < spec["rounds"]

    resumed = make_daemon(tmp_path, model_source, workers=1).start()
    assert wait_for(finished(resumed, job.job_id))
    assert resumed.status(job.job_id)["status"] == "done"
    assert resumed.drain(timeout=30)
    assert_stores_identical(
        store_path,
        reference_store(tmp_path / "ref", mnist_trio, mnist_smoke, spec))


def test_crashed_job_retries_with_backoff_then_succeeds(
        tmp_path, model_source, wait_for):
    """A worker crash (injected, non-library error) costs one attempt;
    the retry runs after the backoff gate and completes the job."""
    daemon = make_daemon(tmp_path, model_source).start()
    with inject("farm.job.start", countdown=1, action="raise") as arm:
        job = daemon.submit(dict(SPEC, rounds=1))
        assert wait_for(finished(daemon, job.job_id))
    record = daemon.status(job.job_id)
    assert arm["remaining"] == 0            # the fault really fired
    assert record["status"] == "done"
    assert record["attempts"] == 2
    assert record["error"] is None          # success wipes the old error
    assert daemon.drain(timeout=30)


def test_repeated_crashes_park_job_as_failed(tmp_path, model_source,
                                             wait_for):
    daemon = make_daemon(tmp_path, model_source, max_attempts=2).start()
    # Two one-shot arms on the same point: the first fires on attempt 1,
    # the (by then exhausted) first is skipped and the second fires on
    # attempt 2.
    with inject("farm.job.start", countdown=1, action="raise"), \
            inject("farm.job.start", countdown=1, action="raise"):
        job = daemon.submit(dict(SPEC, rounds=1))
        assert wait_for(finished(daemon, job.job_id))
        record = daemon.status(job.job_id)
    assert record["status"] == "failed"
    assert record["attempts"] == 2
    assert "injected fault" in record["error"]
    assert daemon.drain(timeout=30)


def test_library_errors_fail_permanently_without_retries(
        tmp_path, model_source, wait_for):
    daemon = make_daemon(tmp_path, model_source).start()
    job = daemon.submit(dict(SPEC, dataset="no-such-dataset"))
    assert wait_for(finished(daemon, job.job_id))
    record = daemon.status(job.job_id)
    assert record["status"] == "failed"
    assert record["attempts"] == 1          # no pointless retries
    assert "no-such-dataset" in record["error"]
    assert daemon.drain(timeout=30)


def test_submit_rejects_when_saturated(tmp_path, model_source):
    """Backpressure before the worker pool starts: capacity counts the
    backlog, so rejection is deterministic."""
    daemon = make_daemon(tmp_path, model_source, capacity=2)   # no start()
    daemon.submit(dict(SPEC, store="a"))
    daemon.submit(dict(SPEC, store="b"))
    with pytest.raises(QueueSaturatedError) as excinfo:
        daemon.submit(dict(SPEC, store="c"))
    assert excinfo.value.retry_after > 0
    daemon.drain(timeout=5)


def test_submit_rejects_store_locked_by_live_outsider(
        tmp_path, model_source):
    daemon = make_daemon(tmp_path, model_source)               # no start()
    store_path = daemon.store_path("captive")
    os.makedirs(store_path)
    with open(os.path.join(store_path, LOCK_NAME), "w",
              encoding="utf-8") as handle:
        json.dump({"pid": 1, "owner": "init"}, handle)
    with pytest.raises(StoreLockedError):
        daemon.submit(dict(SPEC, store="captive"))
    daemon.drain(timeout=5)


def test_warm_worker_deserializes_models_once_across_jobs(
        tmp_path, model_source, wait_for):
    """The daemon loads each trio once and every job runs on it: one
    worker thread, two jobs, and not one model rebuilt from a
    payload."""
    daemon = make_daemon(tmp_path, model_source, workers=1)
    with PayloadCounter() as counter:
        daemon.start()
        a = daemon.submit(dict(SPEC, rounds=1))
        b = daemon.submit(dict(SPEC, rounds=2))   # same store: runs after
        assert wait_for(finished(daemon, a.job_id))
        assert wait_for(finished(daemon, b.job_id))
        assert daemon.drain(timeout=30)
    assert daemon.status(a.job_id)["status"] == "done"
    assert daemon.status(b.job_id)["status"] == "done"
    assert counter.total() == 0

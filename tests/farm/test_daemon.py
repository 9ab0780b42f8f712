"""FarmDaemon in-process: multi-tenant execution, drain, retries,
backpressure, and each worker thread's engine processes."""

import json
import multiprocessing
import os
import signal
import sys

import pytest

from repro.core import PAPER_HYPERPARAMS, constraint_for_dataset, make_rule
from repro.corpus import CorpusStore, FuzzSession
from repro.farm import FarmDaemon, QueueSaturatedError, StoreLockedError
from repro.farm.jobs import normalize_spec
from repro.farm.locks import LOCK_NAME
from repro.nn.instrumentation import PassCounter, PayloadCounter
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
    spec = normalize_spec(spec)
    FuzzSession(str(path), models, PAPER_HYPERPARAMS["mnist"],
                constraint_for_dataset(dataset, kind=spec["constraint"]),
                task=dataset.task, wave_size=spec["wave_size"], workers=1,
                shard_size=spec["shard_size"], seed=spec["seed"],
                rule=make_rule(spec["ascent"], beta=spec["beta"],
                               overshoot=spec["overshoot"]),
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
        tmp_path, model_source, mnist_trio, wait_for):
    """One worker thread, two jobs: the thread's engine process, started
    by the first job's first wave, rebuilds each trio member once and
    serves both jobs."""
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
    assert counter.deserializations == {m.name: 1 for m in mnist_trio}


def test_multi_worker_job_starts_its_processes_once(
        tmp_path, model_source, mnist_trio, mnist_smoke, wait_for,
        assert_stores_identical):
    """A three-wave job with ``workers: 2`` runs every wave on the same
    two engine processes (each rebuilds the trio once), not on a pool
    per wave, and equals the in-process reference."""
    spec = dict(SPEC, rounds=3, workers=2)
    daemon = make_daemon(tmp_path, model_source, workers=1)
    with PayloadCounter() as counter:
        daemon.start()
        job = daemon.submit(spec)
        assert wait_for(finished(daemon, job.job_id))
        assert daemon.drain(timeout=30)
    record = daemon.status(job.job_id)
    assert record["status"] == "done"
    assert record["result"]["completed_rounds"] == 3
    assert counter.deserializations == {m.name: 2 for m in mnist_trio}
    assert_stores_identical(
        daemon.store_path(spec["store"]),
        reference_store(tmp_path / "ref", mnist_trio, mnist_smoke, spec))


def test_killed_engine_process_fails_only_that_attempt(
        tmp_path, model_source, mnist_trio, mnist_smoke, wait_for,
        assert_stores_identical):
    """SIGKILL a worker thread's engine process: the job that next needs
    it fails one attempt with a retryable error, the retry starts a
    fresh engine process, and the job completes to the reference."""
    daemon = make_daemon(tmp_path, model_source, workers=1).start()
    first = daemon.submit(dict(SPEC, store="first", rounds=1))
    assert wait_for(finished(daemon, first.job_id))
    engines = multiprocessing.active_children()
    assert len(engines) == 1
    os.kill(engines[0].pid, signal.SIGKILL)
    job = daemon.submit(SPEC)
    assert wait_for(finished(daemon, job.job_id))
    record = daemon.status(job.job_id)
    assert record["status"] == "done"
    assert record["attempts"] == 2
    assert daemon.drain(timeout=30)
    assert multiprocessing.active_children() == []
    assert_stores_identical(
        daemon.store_path(SPEC["store"]),
        reference_store(tmp_path / "ref", mnist_trio, mnist_smoke))


def test_more_workers_than_cores_match_solo_sessions(
        tmp_path, model_source, mnist_trio, mnist_smoke, wait_for,
        assert_stores_identical):
    """Stress: more worker threads than cores, each with its own engine
    process, fuzz four tenants under different rules and constraints at
    once while the interpreter switches threads as often as it can.
    Each store equals its solo FuzzSession byte for byte, the farm's
    pass counts equal the solo sessions' (a lost update would break
    that), and drain joins every engine process."""
    specs = [dict(SPEC, store="t0", seed=7),
             dict(SPEC, store="t1", seed=11, ascent="momentum", beta=0.8),
             dict(SPEC, store="t2", seed=13, constraint="occl"),
             dict(SPEC, store="t3", seed=17, ascent="adam")]
    with PassCounter() as solo:
        references = [
            reference_store(tmp_path / f"ref-{spec['store']}", mnist_trio,
                            mnist_smoke, spec) for spec in specs]
    daemon = make_daemon(tmp_path, model_source,
                         workers=max(4, (os.cpu_count() or 1) + 1),
                         capacity=len(specs))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with PassCounter() as farm:
            daemon.start()
            jobs = [daemon.submit(spec) for spec in specs]
            for job in jobs:
                assert wait_for(finished(daemon, job.job_id))
            assert daemon.drain(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert multiprocessing.active_children() == []
    for job, spec, reference in zip(jobs, specs, references):
        assert daemon.status(job.job_id)["status"] == "done"
        assert_stores_identical(daemon.store_path(spec["store"]),
                                reference)
    assert farm.counts() == solo.counts()

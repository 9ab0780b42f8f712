"""JobQueue policies under a fake clock: backpressure, backoff, FIFO,
journal crash recovery."""

import json

import pytest

from repro.errors import FarmError
from repro.farm import JobQueue, QueueSaturatedError, UnknownJobError


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def make_queue(tmp_path, clock, **kwargs):
    kwargs.setdefault("capacity", 4)
    kwargs.setdefault("backoff_base", 1.0)
    return JobQueue(str(tmp_path / "queue.json"), clock=clock, **kwargs)


def spec(store="s", **extra):
    base = {"store": store, "rounds": 2}
    base.update(extra)
    return base


def test_submit_assigns_sequential_ids(tmp_path, clock):
    queue = make_queue(tmp_path, clock)
    a = queue.submit(spec("a"))
    b = queue.submit(spec("b"))
    assert (a.job_id, b.job_id) == ("job-000001", "job-000002")
    assert a.status == "queued" and a.attempts == 0


def test_bad_specs_rejected(tmp_path, clock):
    queue = make_queue(tmp_path, clock)
    with pytest.raises(FarmError):
        queue.submit({})                          # no store
    with pytest.raises(FarmError):
        queue.submit(spec(store="../evil"))       # unsafe name
    with pytest.raises(FarmError):
        queue.submit(spec(kind="meditate"))       # unknown kind
    with pytest.raises(FarmError):
        queue.submit(spec(rounds=0))              # below 1
    with pytest.raises(FarmError):
        queue.submit(spec(frobnicate=1))          # unknown field
    # Each is refused at submit with a FarmError, before any worker
    # sees it.
    bad_fields = [
        {"seed": "abc"}, {"seed": [1]}, {"seed": -1},
        {"rounds": float("inf")}, {"dataset": [1]}, {"ascent": [1]},
        {"constraint": 5}, {"beta": "abc"}, {"overshoot": [1]},
    ]
    for fields in bad_fields:
        with pytest.raises(FarmError):
            queue.submit(spec(**fields))
    assert queue.jobs() == []
    # A store name arrives as a string, whatever JSON type carried it.
    assert queue.submit(spec(store=5)).spec["store"] == "5"


def test_saturation_counts_queued_plus_running(tmp_path, clock):
    """The backpressure contract: rejection is deterministic at
    capacity, independent of how fast workers drain."""
    queue = make_queue(tmp_path, clock, capacity=2)
    queue.submit(spec("a"))
    queue.submit(spec("b"))
    with pytest.raises(QueueSaturatedError) as excinfo:
        queue.submit(spec("c"))
    assert excinfo.value.retry_after > 0
    # A running job still occupies its slot...
    assert queue.claim() is not None
    with pytest.raises(QueueSaturatedError):
        queue.submit(spec("c"))
    # ...and only completion frees it.
    queue.mark_done("job-000001")
    assert queue.submit(spec("c")).job_id == "job-000003"


def test_claim_serializes_per_store_and_keeps_fifo(tmp_path, clock):
    queue = make_queue(tmp_path, clock)
    queue.submit(spec("a"))            # job-1
    queue.submit(spec("a"))            # job-2: same store, must wait
    queue.submit(spec("b"))            # job-3
    first = queue.claim()
    assert first.job_id == "job-000001"
    second = queue.claim()
    assert second.job_id == "job-000003"   # store a is busy; b runs
    assert queue.claim() is None
    queue.mark_done(first.job_id)
    assert queue.claim().job_id == "job-000002"   # a's turn, in order


def test_retry_backoff_doubles_and_gates_claims(tmp_path, clock):
    queue = make_queue(tmp_path, clock, max_attempts=3, backoff_base=2.0)
    queue.submit(spec("a"))
    job = queue.claim()
    queue.mark_failed(job.job_id, RuntimeError("boom"))
    assert job.status == "queued" and job.error == "boom"
    assert queue.claim() is None                  # gated: now + 2*2**0
    assert job.not_before == clock() + 2.0
    clock.advance(2.0)
    job = queue.claim()
    assert job.attempts == 2
    queue.mark_failed(job.job_id, RuntimeError("boom again"))
    assert queue.claim() is None                  # gated: now + 2*2**1
    clock.advance(1.0)
    assert queue.claim() is None
    clock.advance(3.0)
    job = queue.claim()
    assert job.attempts == 3
    queue.mark_failed(job.job_id, RuntimeError("third strike"))
    assert job.status == "failed"                 # max_attempts parked
    assert queue.claim() is None


def test_permanent_failure_skips_retries(tmp_path, clock):
    queue = make_queue(tmp_path, clock, max_attempts=3)
    queue.submit(spec("a"))
    job = queue.claim()
    queue.mark_failed(job.job_id, FarmError("bad spec"), permanent=True)
    assert job.status == "failed" and job.attempts == 1


def test_release_returns_job_without_burning_an_attempt(tmp_path, clock):
    queue = make_queue(tmp_path, clock)
    queue.submit(spec("a"))
    job = queue.claim()
    assert job.attempts == 1
    queue.release(job.job_id)             # graceful drain, not a failure
    assert job.status == "queued" and job.attempts == 0
    assert queue.claim().attempts == 1


def test_unknown_job_id(tmp_path, clock):
    queue = make_queue(tmp_path, clock)
    with pytest.raises(UnknownJobError):
        queue.get("job-999999")


def test_journal_round_trip_requeues_running_jobs(tmp_path, clock):
    """Crash recovery: a journal reloaded after ``kill -9`` turns
    in-flight jobs back into queued ones and keeps the id counter."""
    queue = make_queue(tmp_path, clock)
    queue.submit(spec("a"))
    queue.submit(spec("b"))
    running = queue.claim()
    queue.submit(spec("c"))
    queue.mark_done(queue.claim().job_id)         # b finishes
    del queue

    reloaded = make_queue(tmp_path, clock)
    jobs = {j.job_id: j for j in reloaded.jobs()}
    assert jobs[running.job_id].status == "queued"       # was running
    assert jobs[running.job_id].attempts == 1            # attempt kept
    assert jobs["job-000002"].status == "done"
    assert jobs["job-000003"].status == "queued"
    assert reloaded.submit(spec("d")).job_id == "job-000004"


def test_journal_version_is_checked(tmp_path, clock):
    path = tmp_path / "queue.json"
    path.write_text(json.dumps({"version": 99, "jobs": []}))
    with pytest.raises(FarmError):
        JobQueue(str(path), clock=clock)


def test_invalid_capacity_and_attempts(tmp_path, clock):
    with pytest.raises(FarmError):
        make_queue(tmp_path, clock, capacity=0)
    with pytest.raises(FarmError):
        make_queue(tmp_path, clock, max_attempts=0)

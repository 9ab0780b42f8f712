"""JobQueue policies under a fake clock: backpressure, backoff, FIFO,
journal crash recovery."""

import dataclasses
import json
import os

import pytest

from repro.errors import FarmError
from repro.farm import (FarmDaemon, Job, JobQueue, QueueSaturatedError,
                        UnknownJobError)
from repro.farm.jobs import SPEC_MAXIMA, normalize_spec
from repro.utils.faults import InjectedFault, inject


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


@pytest.mark.parametrize("key", sorted(SPEC_MAXIMA))
def test_spec_sizes_are_refused_above_their_maximum(key):
    limit = SPEC_MAXIMA[key]
    assert normalize_spec({"store": "s", key: limit})[key] == limit
    with pytest.raises(FarmError, match=f"job {key} must be <= {limit}"):
        normalize_spec({"store": "s", key: limit + 1})


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


def _compact(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _run_jobs(queue, count, store="a"):
    for _ in range(count):
        job = queue.submit(spec(store))
        queue.claim()
        queue.mark_done(job.job_id, {"new_tests": 1})


def _bytes_one_job_appends(tmp_path, clock, history):
    """Run ``history`` jobs, then one more; returns what that one
    appended to the journal, checking it rewrote nothing."""
    tmp_path.mkdir()
    queue = make_queue(tmp_path, clock)
    path = tmp_path / "queue.json"
    _run_jobs(queue, history)
    before = path.read_bytes()
    _run_jobs(queue, 1)
    after = path.read_bytes()
    assert after.startswith(before)
    return after[len(before):]


def test_one_job_appends_the_same_bytes_whatever_the_history(tmp_path,
                                                             clock):
    """A job's three mutations append its three records and rewrite
    nothing, so its journal cost does not grow with the history."""
    short = _bytes_one_job_appends(tmp_path / "short", clock, 2)
    long = _bytes_one_job_appends(tmp_path / "long", clock, 200)
    assert short.count(b"\n") == 3
    assert len(short) == len(long) < 2048


def test_reopen_equals_the_writer_job_for_job(tmp_path, clock):
    queue = make_queue(tmp_path, clock, max_attempts=3, backoff_base=2.0)
    a = queue.submit(spec("a"))
    b = queue.submit(spec("b"))
    c = queue.submit(spec("c", kind="compact-merge", sources=["a", "b"]))
    queue.claim()                                   # a
    queue.mark_failed(a.job_id, RuntimeError("boom"))
    assert queue.claim().job_id == b.job_id         # a waits out backoff
    queue.release(b.job_id)
    clock.advance(5.0)
    assert queue.claim().job_id == a.job_id
    queue.mark_done(a.job_id, {"new_tests": 3, "entries": 9})
    assert queue.claim().job_id == b.job_id
    queue.mark_failed(b.job_id, RuntimeError("bad"), permanent=True)
    assert queue.claim().job_id == c.job_id
    queue.mark_done(c.job_id, {"merged_sources": 2})
    written = [job.to_dict() for job in queue.jobs()]
    assert [j["status"] for j in written] == ["done", "failed", "done"]

    reopened = make_queue(tmp_path, clock)
    assert [job.to_dict() for job in reopened.jobs()] == written
    text = (tmp_path / "queue.json").read_text()
    assert text == _compact({"version": 1, "counter": 3, "jobs": written})
    assert reopened.submit(spec("d")).job_id == "job-000004"


def test_torn_last_record_is_skipped(tmp_path, clock):
    queue = make_queue(tmp_path, clock)
    _run_jobs(queue, 1)
    written = [job.to_dict() for job in queue.jobs()]
    queue.submit(spec("b"))                 # the record a crash tears
    path = tmp_path / "queue.json"
    os.truncate(path, path.stat().st_size - 5)

    reopened = make_queue(tmp_path, clock)
    assert [job.to_dict() for job in reopened.jobs()] == written
    assert reopened.submit(spec("b")).job_id == "job-000002"
    assert [job.to_dict() for job in make_queue(tmp_path, clock).jobs()] \
        == [job.to_dict() for job in reopened.jobs()]


def test_journal_fault_point_leaves_the_state_before_the_mutation(
        tmp_path, clock):
    queue = make_queue(tmp_path, clock)
    job = queue.submit(spec("a"))
    queue.claim()
    queue.mark_failed(job.job_id, RuntimeError("boom"))
    before = job.to_dict()
    clock.advance(5.0)
    with inject("farm.journal.mid") as arm:
        with pytest.raises(InjectedFault):
            queue.claim()
    assert arm["remaining"] == 0
    assert job.status == "running"          # memory moved, disk did not
    assert [j.to_dict() for j in make_queue(tmp_path, clock).jobs()] \
        == [before]


def _earlier_build_journal():
    jobs = []
    for number, status in enumerate(["done", "failed", "queued"], 1):
        jobs.append(Job(job_id=f"job-{number:06d}",
                        spec=normalize_spec(spec(f"s{number}")),
                        status=status, attempts=1, not_before=1001.5,
                        submitted=1000.0,
                        error="boom" if status != "done" else None,
                        result={"new_tests": 4} if status == "done"
                        else {}).to_dict())
    return {"version": 1, "counter": 3, "jobs": jobs}


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
def test_journal_from_an_earlier_build_loads_unchanged(tmp_path, clock,
                                                       indent):
    journal = _earlier_build_journal()
    path = tmp_path / "queue.json"
    text = (_compact(journal) if indent is None
            else json.dumps(journal, indent=indent, sort_keys=True) + "\n")
    path.write_text(text)
    queue = make_queue(tmp_path, clock)
    assert [job.to_dict() for job in queue.jobs()] == journal["jobs"]
    assert path.read_text() == text         # nothing to compact
    queue.submit(spec("d"))
    assert path.read_text().startswith(text)
    assert [job.job_id for job in make_queue(tmp_path, clock).jobs()] \
        == ["job-000001", "job-000002", "job-000003", "job-000004"]


SNAPSHOT = _compact({"version": 1, "counter": 1, "jobs": []})
RECORD = _compact(Job(job_id="job-000001",
                      spec=normalize_spec(spec("a"))).to_dict())

GARBLED_JOURNALS = {
    "truncated": (_compact({"version": 1, "counter": 1,
                            "jobs": [json.loads(RECORD)]})[:60],
                  r"queue\.json: "),
    "empty": ("", r"queue\.json: "),
    "list": ("[1, 2]\n", r"queue\.json: expected a JSON object"),
    "record-without-spec": (_compact({"version": 1, "counter": 1, "jobs": [
        {"job_id": "job-000001"}]}), "needs a spec"),
    "record-not-an-object": (_compact({"version": 1, "counter": 1,
                                       "jobs": [5]}), "must be an object"),
    "counter-not-an-int": (_compact({"version": 1, "counter": "x",
                                     "jobs": []}), "counter"),
    "jobs-not-a-list": (_compact({"version": 1, "counter": 1,
                                  "jobs": {}}), "jobs must be a list"),
    "attempts-not-an-int": (SNAPSHOT + RECORD.replace('"attempts":0',
                                                      '"attempts":"x"'),
                            r"queue\.json line 2: .*'attempts'"),
    "unknown-status": (SNAPSHOT + RECORD.replace('"queued"', '"lost"'),
                       r"queue\.json line 2: unknown job status"),
    "line-not-a-record": (SNAPSHOT + RECORD + "[1]\n",
                          r"queue\.json line 3: .*must be an object"),
    "line-int-too-long": (SNAPSHOT + "9" * 5000 + "\n",
                          r"queue\.json line 2"),
    "not-utf8": ('{"version": 1, "counter": "\udcff"}', r"queue\.json: "),
}


@pytest.mark.parametrize("name", sorted(GARBLED_JOURNALS))
def test_garbled_journal_is_a_farm_error_naming_the_file(tmp_path, clock,
                                                         name):
    text, match = GARBLED_JOURNALS[name]
    (tmp_path / "queue.json").write_bytes(
        text.encode("utf-8", "surrogateescape"))
    with pytest.raises(FarmError, match=match):
        make_queue(tmp_path, clock)


def test_daemon_over_a_garbled_journal_fails_typed(tmp_path):
    """A ReproError, which ``repro serve`` prints as one line."""
    (tmp_path / "queue.json").write_text("[1, 2]\n")
    with pytest.raises(FarmError, match=r"queue\.json"):
        FarmDaemon(str(tmp_path))


@pytest.mark.parametrize("extra", [
    {"kind": "fuzz"}, {"kind": "generate"},
    {"kind": "federate", "campaign": "/shared/c", "lease": 5},
    {"kind": "compact-merge", "sources": ["x", "y"]},
    {"kind": "compact-distill"}], ids=lambda extra: extra["kind"])
def test_to_dict_is_asdict_and_aliases_nothing(extra):
    job = Job(job_id="job-000007", spec=normalize_spec(spec("s", **extra)),
              status="done", attempts=2, not_before=3.5, submitted=1.0,
              error=None, result={"new_tests": 3})
    before = dataclasses.asdict(job)        # a deep copy
    record = job.to_dict()
    assert record == before
    assert Job.from_dict(record) == job
    record["spec"]["store"] = "other"
    for value in record["spec"].values():
        if isinstance(value, list):
            value.append("z")
    record["result"]["new_tests"] = 99
    assert dataclasses.asdict(job) == before

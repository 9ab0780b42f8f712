"""Bounded, journaled job queue with retry-backoff and per-store FIFO.

The farm's scheduling core, deliberately free of threads and sockets so
every policy here is unit-testable with a fake clock:

* **Backpressure** — ``submit`` rejects with
  :class:`QueueSaturatedError` (carrying a ``retry_after`` hint) once
  ``queued + running`` reaches capacity.  Counting *both* makes
  saturation deterministic: it cannot depend on how fast workers drain.
* **Journal** — ``queue.json`` is a compacted snapshot (``{"version",
  "counter", "jobs"}``) followed by one appended line per mutation: the
  changed job's full record, flushed and fsynced.  A mutation writes
  one job, never the daemon's history.  Opening the queue replays the
  records over the snapshot (the last record per job wins) and
  compacts the result into a fresh snapshot, so a ``kill -9`` of the
  daemon loses at most the record it was appending: on reload, jobs
  found ``running`` were in flight when the process died and go back to
  ``queued`` (same attempt count — a crash of the *daemon* is not a
  strike against the *job*; the store's own checkpoint makes the re-run
  converge).
* **Retry with backoff** — a failed attempt re-queues the job gated by
  ``not_before = now + backoff_base * 2**(attempts-1)`` until
  ``max_attempts``, then parks it as ``failed`` with the error string.
* **Per-store serialization** — ``claim`` never hands out a job whose
  store another in-flight job owns; corpus stores are single-writer,
  and within one store jobs run in submit order.
"""

from __future__ import annotations

import json
import re
import time

from repro.errors import FarmError
from repro.farm.jobs import Job, normalize_spec
from repro.utils.atomicio import append_json_line, atomic_write_json
from repro.utils.faults import fault_point

__all__ = ["JobQueue", "QueueSaturatedError", "UnknownJobError"]

JOURNAL_VERSION = 1

_JOB_ID = re.compile(r"job-(\d+)")

#: One decode for the snapshot and for each appended line.
_decode = json.JSONDecoder().raw_decode


class QueueSaturatedError(FarmError):
    """The queue is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, capacity, retry_after):
        self.capacity = int(capacity)
        self.retry_after = float(retry_after)
        super().__init__(
            f"farm queue is saturated ({capacity} job(s) in flight); "
            f"retry in {self.retry_after:.1f}s")


class UnknownJobError(FarmError):
    """No job with the requested id (mistyped, or another root's id)."""

    def __init__(self, job_id):
        super().__init__(f"unknown job id {job_id!r}")


class JobQueue:
    """In-memory queue + on-disk journal (see module docstring).

    Not thread-safe by itself: the daemon serializes access under its
    own lock.  ``clock`` is injectable for backoff tests.
    """

    def __init__(self, journal_path, capacity=8, max_attempts=3,
                 backoff_base=1.0, clock=time.time):
        if capacity < 1:
            raise FarmError(f"queue capacity must be >= 1, got {capacity}")
        if max_attempts < 1:
            raise FarmError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.journal_path = journal_path
        self.capacity = int(capacity)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.clock = clock
        self._jobs = {}              # job_id -> Job, insertion-ordered
        self._counter = 0
        self._snapshot_written = False
        self._load()

    # -- journal ------------------------------------------------------------
    def _load(self):
        """Replay ``queue.json``: its snapshot, then each appended record.

        The snapshot decodes from the start of the file, so a journal
        from any earlier build (a lone snapshot, compact or indented)
        loads as it is.  A line that is not complete JSON is a torn
        append and is skipped, as ``meta.jsonl``'s is; anything else
        that is not a job record is a :class:`FarmError` naming the file
        (and the line).
        """
        try:
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        except UnicodeDecodeError as error:
            raise self._corrupt(error) from None
        try:
            journal, end = _decode(data)
        except (ValueError, RecursionError) as error:
            # ValueError covers bad JSON and integers past Python's
            # digit limit; RecursionError, nesting too deep.
            raise self._corrupt(error) from None
        if not isinstance(journal, dict):
            raise self._corrupt(f"expected a JSON object, "
                                f"got {type(journal).__name__}")
        if journal.get("version") != JOURNAL_VERSION:
            raise FarmError(
                f"job journal at {self.journal_path} has version "
                f"{journal.get('version')!r}; this build reads "
                f"{JOURNAL_VERSION}")
        counter = journal.get("counter", 0)
        if type(counter) is not int or counter < 0:
            raise self._corrupt(f"counter must be an integer >= 0, "
                                f"got {counter!r}")
        self._counter = counter
        records = journal.get("jobs", [])
        if not isinstance(records, list):
            raise self._corrupt("jobs must be a list of job records")
        for record in records:
            self._replay(record)
        first = data.count("\n", 0, end) + 1
        for number, line in enumerate(data[end:].split("\n"), first):
            line = line.strip()
            if not line:
                continue
            try:
                record, stop = _decode(line)
            except json.JSONDecodeError:
                continue
            except (ValueError, RecursionError) as error:
                raise self._corrupt(error, number) from None
            if stop == len(line):
                self._replay(record, number)
        requeued = False
        for job in self._jobs.values():
            if job.status == "running":
                # In flight when the previous daemon died; the store
                # checkpoint holds its progress, so simply re-queue.
                job.status = "queued"
                requeued = True
        self._snapshot_written = True
        if requeued or data[end:].strip():
            # A crash mid-write leaves the old file, which replays to
            # these same jobs.
            self._write_snapshot()

    def _replay(self, record, line=None):
        try:
            job = Job.from_dict(record)
        except FarmError as error:
            raise self._corrupt(error, line) from None
        self._jobs[job.job_id] = job        # keeps its first position
        number = _JOB_ID.fullmatch(job.job_id)
        if number:
            self._counter = max(self._counter, int(number.group(1)))

    def _corrupt(self, problem, line=None):
        where = self.journal_path if line is None \
            else f"{self.journal_path} line {line}"
        return FarmError(f"corrupt job journal {where}: {problem}")

    def _write_snapshot(self):
        atomic_write_json(self.journal_path, {
            "version": JOURNAL_VERSION,
            "counter": self._counter,
            "jobs": [job.to_dict() for job in self._jobs.values()],
        })
        self._snapshot_written = True

    def _save(self, job):
        """Make ``job``'s mutation durable: one appended record (the
        first mutation of a fresh journal writes its snapshot)."""
        fault_point("farm.journal.mid")
        if self._snapshot_written:
            append_json_line(self.journal_path, job.to_dict())
        else:
            self._write_snapshot()

    # -- introspection ------------------------------------------------------
    def jobs(self, status=None):
        if status is None:
            return list(self._jobs.values())
        return [j for j in self._jobs.values() if j.status == status]

    def get(self, job_id):
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def in_flight(self):
        """Jobs counting against capacity (queued or running)."""
        return [j for j in self._jobs.values()
                if j.status in ("queued", "running")]

    def active_stores(self):
        return {j.store for j in self._jobs.values()
                if j.status == "running"}

    # -- lifecycle ----------------------------------------------------------
    def submit(self, spec):
        """Enqueue a normalized spec; returns the :class:`Job`.

        Raises :class:`QueueSaturatedError` at capacity — the caller
        (CLI, client library) is expected to surface the ``retry_after``
        hint rather than spin.
        """
        spec = normalize_spec(spec)
        if len(self.in_flight()) >= self.capacity:
            # Scale the hint with the backlog: a deeper queue takes
            # proportionally longer to drain one slot.
            retry_after = self.backoff_base * max(1, len(self.in_flight()))
            raise QueueSaturatedError(self.capacity, retry_after)
        self._counter += 1
        job = Job(job_id=f"job-{self._counter:06d}", spec=spec,
                  submitted=float(self.clock()))
        self._jobs[job.job_id] = job
        self._save(job)
        return job

    def claim(self):
        """Hand out the next runnable job (marked ``running``), or None.

        Runnable: queued, past its backoff gate, and not targeting a
        store some running job already owns.  First match in insertion
        order keeps per-store FIFO.
        """
        now = float(self.clock())
        busy = self.active_stores()
        for job in self._jobs.values():
            if job.status != "queued" or job.store in busy:
                continue
            if job.not_before > now:
                continue
            job.status = "running"
            job.attempts += 1
            self._save(job)
            return job
        return None

    def mark_done(self, job_id, result=None):
        job = self.get(job_id)
        job.status = "done"
        job.error = None
        job.result = dict(result or {})
        self._save(job)

    def mark_failed(self, job_id, error, permanent=False):
        """Record a failed attempt: backoff-requeue or park as failed.

        ``permanent`` skips the retries — for deterministic rejections
        (a bad spec, a session-identity mismatch) that would fail
        identically on every attempt.
        """
        job = self.get(job_id)
        if permanent or job.attempts >= self.max_attempts:
            job.status = "failed"
            job.error = str(error)
        else:
            job.status = "queued"
            job.error = str(error)
            job.not_before = (float(self.clock())
                              + self.backoff_base * 2 ** (job.attempts - 1))
        self._save(job)

    def release(self, job_id):
        """Put a running job back to queued, not counting an attempt.

        The graceful-drain path: the daemon stopped the job at a wave
        boundary, its progress is in the store checkpoint, and the next
        daemon continues it — that is not a failure.
        """
        job = self.get(job_id)
        job.status = "queued"
        job.attempts = max(0, job.attempts - 1)
        self._save(job)

"""Farm job specs: what a tenant asks the daemon to do.

A job is a JSON-safe dict all the way down — it crosses the submit
socket, lives in the queue journal, and comes back from ``repro
status`` without ever holding a live object.  Two kinds:

``fuzz``
    Advance the named corpus store to ``rounds`` total completed waves
    (a :class:`~repro.corpus.session.FuzzSession` target, not an
    increment), drawing an initial ``seeds``-sized pool when the store
    is fresh.  Resumable at wave granularity: a killed daemon re-runs
    the job and the session continues from the store's checkpoint.

``generate``
    One deterministic DeepXplore generation pass: ``seeds`` inputs
    sampled from the dataset, ascended by a campaign, results absorbed
    into the store.  Trackers start empty on purpose — the pass is a
    pure function of its spec, never of the store's current state, so
    re-running a half-applied job converges (content-addressed entries
    dedup, coverage OR-merges the same masks).

``federate``
    A ``fuzz`` job whose waves execute through a shared shard ledger
    (``campaign`` names the campaign directory, reachable by every
    participating host — see :mod:`repro.dist.shards`).  Submit the
    same federate spec to several daemons and they split each wave's
    shards between them, stealing from hosts that die (``lease``
    seconds after the claim, default 60 — a throughput knob, like
    ``workers``); each host's store converges bit-identically to a
    solo run.

``compact-merge``
    Background compaction, step 1: pull the ``sources`` tenant stores
    into this job's (archive) store with :func:`repro.dist.sync.pull`,
    which reads each source through a snapshot — sources may be
    mid-fuzz.

``compact-distill``
    Background compaction, step 2: shrink the store to a
    coverage-preserving regression suite (:meth:`CorpusStore.distill`)
    and prune the fuzz scheduler of dropped entries.  Scheduled
    automatically by a daemon started with ``--compact-every``.

The identity fields (``wave_size``, ``shard_size``, ``seed``,
``ascent``, ``constraint``) mean exactly what they mean on the ``repro
fuzz`` command line; ``workers`` is the number of engine processes the
job's worker thread runs its shards on, and is throughput-only as
everywhere else.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from repro.errors import FarmError

__all__ = ["Job", "JOB_KINDS", "JOB_STATUSES", "SPEC_MAXIMA",
           "check_store_name", "normalize_spec"]

JOB_KINDS = ("fuzz", "generate", "federate", "compact-merge",
             "compact-distill")

JOB_STATUSES = ("queued", "running", "done", "failed")

#: Store names become directories under ``<root>/stores/``; keep them
#: path-safe and unsurprising.
_STORE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

#: Spec fields a submitter may set, with their defaults.  ``None``
#: means required.
_SPEC_FIELDS = {
    "kind": "fuzz",
    "store": None,
    "dataset": "mnist",
    "rounds": 2,
    "seeds": 16,
    "wave_size": 8,
    "shard_size": 8,
    "seed": 0,
    "ascent": "vanilla",
    "beta": None,
    "overshoot": None,
    "constraint": "default",
    "workers": 1,
    "campaign": None,     # federate: shared campaign directory
    "lease": None,        # federate: seconds before a claim is stealable
    "sources": None,      # compact-merge: store names to fold in
}

#: The largest value a submit may ask for in each sized field.  Each
#: sizes what the daemon commits to the job — worker processes, the
#: seed pool held in memory, waves of wall time — so one request cannot
#: ask for thousands of processes or an unbounded allocation.  Every
#: limit sits far above what the docs, tools and benchmarks use.
SPEC_MAXIMA = {
    "rounds": 100_000,
    "seeds": 100_000,
    "wave_size": 10_000,
    "shard_size": 10_000,
    "workers": 64,
}


def check_store_name(name, what="store"):
    """``name`` as a string, or a :class:`FarmError` when it is not a
    path-safe store name (job specs and the store verbs both check)."""
    name = str(name)
    if not _STORE_NAME.fullmatch(name):
        raise FarmError(f"bad {what} name {name!r}; use letters, digits, "
                        "dot, dash, underscore")
    return name


def normalize_spec(spec):
    """Validate + default a submitted job spec; returns a clean dict.

    Raises :class:`~repro.errors.FarmError` — which the server maps to
    a one-line submit rejection — rather than letting a bad spec crash
    a worker thread three retries deep.
    """
    if not isinstance(spec, dict):
        raise FarmError(f"job spec must be a mapping, got {type(spec).__name__}")
    unknown = set(spec) - set(_SPEC_FIELDS)
    if unknown:
        raise FarmError(f"unknown job spec field(s): {sorted(unknown)}")
    clean = dict(_SPEC_FIELDS)
    clean.update({k: v for k, v in spec.items() if v is not None})
    if clean["store"] is None:
        raise FarmError("job spec needs a store name")
    clean["store"] = check_store_name(clean["store"])
    if clean["kind"] not in JOB_KINDS:
        raise FarmError(
            f"unknown job kind {clean['kind']!r}; want one of {JOB_KINDS}")
    if clean["kind"] == "federate":
        if clean["campaign"] is None:
            raise FarmError(
                "federate jobs need a campaign directory (the shared "
                "shard-ledger root every participating host can reach)")
        clean["campaign"] = str(clean["campaign"])
        if clean["lease"] is not None:
            try:
                clean["lease"] = float(clean["lease"])
            except (TypeError, ValueError):
                raise FarmError(f"job lease must be a number, "
                                f"got {clean['lease']!r}") from None
            if not 0 < clean["lease"] < math.inf:
                raise FarmError(f"job lease must be a finite number of "
                                f"seconds > 0, got {clean['lease']}")
    elif clean["campaign"] is not None:
        raise FarmError(
            f"campaign only applies to federate jobs, not "
            f"{clean['kind']!r}")
    elif clean["lease"] is not None:
        raise FarmError(
            f"lease only applies to federate jobs, not {clean['kind']!r}")
    if clean["kind"] == "compact-merge":
        sources = clean["sources"]
        if not isinstance(sources, (list, tuple)) or not sources:
            raise FarmError(
                "compact-merge jobs need a non-empty list of source "
                "store names")
        for name in sources:
            check_store_name(name, "source store")
            if str(name) == str(clean["store"]):
                raise FarmError(
                    f"compact-merge source {name!r} is the destination "
                    "store itself")
        clean["sources"] = [str(name) for name in sources]
    elif clean["sources"] is not None:
        raise FarmError(
            f"sources only applies to compact-merge jobs, not "
            f"{clean['kind']!r}")
    for key, maximum in SPEC_MAXIMA.items():
        clean[key] = _spec_integer(clean, key, minimum=1, maximum=maximum)
    # numpy's SeedSequence refuses negative entropy.
    clean["seed"] = _spec_integer(clean, "seed", minimum=0)
    for key in ("dataset", "ascent", "constraint"):
        if not isinstance(clean[key], str):
            raise FarmError(f"job {key} must be a name, got {clean[key]!r}")
    for key in ("beta", "overshoot"):
        if clean[key] is not None:
            try:
                clean[key] = float(clean[key])
            except (TypeError, ValueError):
                raise FarmError(f"job {key} must be a number, "
                                f"got {clean[key]!r}") from None
    return clean


def _spec_integer(clean, key, minimum, maximum=None):
    try:
        value = int(clean[key])
    except (TypeError, ValueError, OverflowError):
        raise FarmError(f"job {key} must be an integer, "
                        f"got {clean[key]!r}") from None
    if value < minimum:
        raise FarmError(f"job {key} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise FarmError(f"job {key} must be <= {maximum}, got {value}")
    return value


#: The JSON type(s) each field of a job record may hold.
_RECORD_TYPES = {"job_id": str, "spec": dict, "status": str,
                 "attempts": int, "not_before": (int, float),
                 "submitted": (int, float), "error": (str, type(None)),
                 "result": dict}


@dataclass
class Job:
    """One queued/running/finished unit of farm work."""

    job_id: str
    spec: dict
    status: str = "queued"
    attempts: int = 0
    not_before: float = 0.0     # wall-clock gate for retry backoff
    submitted: float = 0.0
    error: str = None
    result: dict = field(default_factory=dict)

    @property
    def store(self):
        return self.spec["store"]

    def to_dict(self):
        """This job as a fresh JSON-safe dict, built field by field.

        ``spec`` (with its ``sources`` list) and ``result`` are copied,
        so no caller can alias the live job.
        """
        spec = dict(self.spec)
        if spec.get("sources") is not None:
            spec["sources"] = list(spec["sources"])
        return {"job_id": self.job_id, "spec": spec, "status": self.status,
                "attempts": self.attempts, "not_before": self.not_before,
                "submitted": self.submitted, "error": self.error,
                "result": dict(self.result)}

    @classmethod
    def from_dict(cls, record):
        """Inverse of :meth:`to_dict`; a :class:`FarmError` saying what
        is wrong when ``record`` is not a job record."""
        if not isinstance(record, dict):
            raise FarmError(f"a job record must be an object, "
                            f"got {type(record).__name__}")
        for key in ("job_id", "spec"):
            if key not in record:
                raise FarmError(f"a job record needs a {key}")
        for key, value in record.items():
            if key not in _RECORD_TYPES:
                raise FarmError(f"unknown job record field {key!r}")
            if isinstance(value, bool) \
                    or not isinstance(value, _RECORD_TYPES[key]):
                raise FarmError(f"job record field {key!r} has the wrong "
                                f"type: {value!r}")
        if record.get("status", "queued") not in JOB_STATUSES:
            raise FarmError(f"unknown job status {record['status']!r}")
        spec = record["spec"]
        if not (isinstance(spec.get("store"), str)
                and isinstance(spec.get("kind"), str)):
            raise FarmError("a job record's spec needs a store and a kind")
        return cls(**record)

    def describe(self):
        """One status line (the ``repro status`` table row)."""
        extra = ""
        if self.status == "failed" and self.error:
            extra = f"  error: {self.error}"
        elif self.status == "queued" and self.attempts:
            extra = f"  retry #{self.attempts}"
        elif self.status == "done" and self.result:
            parts = [f"{k}={self.result[k]}" for k in
                     ("completed_rounds", "new_tests", "entries")
                     if k in self.result]
            extra = "  " + " ".join(parts)
        return (f"{self.job_id:<12} {self.spec['kind']:<9} "
                f"{self.store:<16} {self.status:<8}{extra}")

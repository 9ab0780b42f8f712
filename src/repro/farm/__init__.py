"""The fuzz farm: an always-on, multi-tenant campaign daemon.

Layered bottom-up (each layer unit-tested on its own in
``tests/farm/``):

:mod:`repro.farm.jobs`
    Job specs — JSON-safe descriptions of generate/fuzz work.
:mod:`repro.farm.queue`
    Bounded journaled queue: backpressure, retry-with-backoff,
    per-store FIFO, crash recovery.
:mod:`repro.farm.locks`
    Pid-liveness store locks (stale locks from ``kill -9`` self-heal).
:mod:`repro.farm.daemon`
    The worker-threaded daemon executing jobs over per-tenant corpus
    stores under one farm root.
:mod:`repro.farm.server` / :mod:`repro.farm.client`
    JSON-lines control socket (``repro serve | submit | status``),
    plus the corpus-pull verbs :mod:`repro.dist` speaks
    (:class:`PeerClient`).

See docs/FARM.md for the operational story and docs/DISTRIBUTED.md
for the multi-host fabric built on top.
"""

from repro.farm.client import FarmClient, PeerClient
from repro.farm.daemon import FarmDaemon
from repro.farm.jobs import JOB_KINDS, Job, normalize_spec
from repro.farm.locks import StoreLock, StoreLockedError, lock_holder
from repro.farm.queue import (JobQueue, QueueSaturatedError,
                              UnknownJobError)
from repro.farm.server import FarmServer

__all__ = [
    "FarmClient",
    "FarmDaemon",
    "FarmServer",
    "JOB_KINDS",
    "Job",
    "JobQueue",
    "PeerClient",
    "QueueSaturatedError",
    "StoreLock",
    "StoreLockedError",
    "UnknownJobError",
    "lock_holder",
    "normalize_spec",
]

"""The farm daemon: a long-lived, multi-tenant fuzzing campaign service.

One :class:`FarmDaemon` owns a *farm root* directory::

    root/
      queue.json            # job journal: snapshot + appended records
      daemon.json           # live endpoint record (written by the server)
      LOCK                  # daemon liveness lock (pid-checked)
      stores/<name>/        # one corpus store per tenant

and runs a fixed pool of worker *threads* that pull jobs from the
queue.  The daemon loads each dataset's model trio once.  Each thread
runs the ascent of its fuzz and generate jobs in its own engine
process(es): one :class:`~repro.core.campaign.CampaignPool`, with as
many processes as the job spec's ``workers``, which the thread's first
such wave starts.  The thread keeps it across waves, jobs and tenants,
replaces it only when a job needs another trio or another ``workers``
count, and closes and joins it when it exits at drain.  So the threads
no longer take turns on one interpreter lock for the ascent.  The
engine processes only compute shard outcomes; the thread keeps
everything that touches disk (session open, absorb, commit, the queue
and the store lock).  Federate jobs run their claimed shards on the
thread itself (:class:`~repro.dist.shards.LedgerShardRunner`), and so
do compaction jobs.

Crash story (the tentpole contract): every durable structure already
survives ``kill -9`` — the queue journal skips a torn append, running jobs
re-queue on reload, and corpus stores checkpoint per wave — so a
daemon killed mid-wave restarts, re-claims the interrupted job, and
the resumed store converges bit-identically to an uninterrupted run.
``tests/farm/`` pins exactly that with deterministic fault injection
(:mod:`repro.utils.faults`).  An engine process orphaned by that kill
reads end-of-file on its pipe and exits after at most its current
shard; it never writes a store.  An engine process that dies fails only
its job's current attempt: the wave raises
:class:`~repro.core.campaign.EngineProcessError`, which the queue
retries, and the thread starts a fresh pool for the retry.

Graceful drain: :meth:`drain` stops workers at the next *wave
boundary*; the interrupted job is released back to queued (not a
failure, no attempt burned) with its progress in the store checkpoint.

Beyond the job queue, a daemon is also a *federation peer* (see
``repro.dist`` and docs/DISTRIBUTED.md): it answers the read-only store
verbs a puller uses (``store-manifest`` / ``store-entry`` /
``store-entries``) to clients on the same machine (the server binds
``127.0.0.1``), runs ledger-federated fuzz jobs (kind ``federate``)
with hosts that share the campaign directory's filesystem, and — only
when started with ``compact_every`` — runs a housekeeper thread that
keeps its tenant stores bounded by scheduling ``compact-distill`` jobs
in the background.  It opens no outbound connections.

No verb writes into a tenant store, so each store has one writer: the
job the queue handed it to (the queue never runs two jobs on one
store).  The read verbs go through :meth:`CorpusStore.snapshot`, which
is safe against that writer, on one read handle per store that the
daemon keeps until the store is gone: a handle's next snapshot decodes
only what changed on disk since its last, so a warm re-pull costs the
reads, not a parse of the whole store.  Each handle holds the store's
parsed entry index and the bytes it compares against (about 2.7 MB at
2720 entries).
"""

from __future__ import annotations

import os
import re
import socket
import threading
import time

import numpy as np

from repro.core import (Campaign, PAPER_HYPERPARAMS, constraint_for_dataset,
                        make_rule)
from repro.core.campaign import CampaignPool
from repro.corpus import CorpusStore, FuzzSession, corpus_fingerprint
from repro.coverage import NeuronCoverageTracker
from repro.errors import FarmError, ReproError
from repro.farm.jobs import check_store_name, normalize_spec
from repro.farm.locks import StoreLock, StoreLockedError, lock_holder
from repro.farm.queue import JobQueue
from repro.utils.faults import fault_point

__all__ = ["FarmDaemon"]

#: How long an idle worker sleeps before re-checking the queue; also
#: bounds how late a backoff-gated retry can start.
_POLL_INTERVAL = 0.1

#: A content address as the store writes it (``input_hash``).
_ENTRY_HASH = re.compile(r"[0-9a-f]{64}")


def _default_model_source(dataset_name, scale, seed):
    from repro.datasets import load_dataset
    from repro.models import get_trio
    dataset = load_dataset(dataset_name, scale=scale, seed=seed)
    return get_trio(dataset_name, scale=scale, seed=seed,
                    dataset=dataset), dataset


class FarmDaemon:
    """Job-queue daemon over a farm root (see module docstring).

    Parameters
    ----------
    root:
        The farm root directory (created if absent).
    workers:
        Worker threads pulling jobs (concurrency across *stores*; jobs
        on one store always serialize).
    capacity:
        Max jobs in flight (queued + running) before submits are
        rejected with a retry-after hint.
    max_attempts, backoff_base:
        Retry policy for crashed jobs (see :class:`JobQueue`).
    scale, seed:
        Zoo scale/seed used when loading model trios for jobs.
    model_source:
        ``f(dataset_name, scale, seed) -> (models, dataset)`` override;
        tests inject session-scoped fixtures here so the daemon never
        trains.
    compact_every:
        Seconds between background compaction sweeps (``None``, the
        default, starts no housekeeper thread).  Each sweep submits a
        ``compact-distill`` job per tenant store that has grown since
        its last distillation, so an unattended farm root stays bounded
        without an operator.
    """

    def __init__(self, root, workers=2, capacity=8, max_attempts=3,
                 backoff_base=1.0, scale="smoke", seed=0,
                 model_source=None, compact_every=None):
        if workers < 1:
            raise FarmError(f"workers must be >= 1, got {workers}")
        self.root = os.path.abspath(root)
        self.stores_dir = os.path.join(self.root, "stores")
        os.makedirs(self.stores_dir, exist_ok=True)
        self.workers = int(workers)
        self.scale = scale
        self.seed = int(seed)
        self._model_source = model_source or _default_model_source
        self._trios = {}             # dataset name -> (models, dataset)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._draining = False
        self._threads = []
        #: Each worker thread's CampaignPool (``pool``), once started.
        self._engines = threading.local()
        self._housekeeper = None
        self.compact_every = (None if compact_every is None
                              else float(compact_every))
        if self.compact_every is not None and self.compact_every <= 0:
            raise FarmError(
                f"compact_every must be > 0, got {self.compact_every}")
        #: Store name -> (read handle, its lock) for the store verbs.
        #: FarmServer answers each connection on its own thread, and a
        #: snapshot updates what its handle has decoded.
        self._readers = {}
        self._daemon_lock = StoreLock(self.root,
                                      owner=f"farm-daemon:{os.getpid()}")
        self._daemon_lock.acquire()
        self.queue = JobQueue(os.path.join(self.root, "queue.json"),
                              capacity=capacity, max_attempts=max_attempts,
                              backoff_base=backoff_base)

    # -- store plumbing -----------------------------------------------------
    def store_path(self, name):
        return os.path.join(self.stores_dir, name)

    def store_names(self):
        """Tenant store directories that exist right now, sorted."""
        try:
            return sorted(
                name for name in os.listdir(self.stores_dir)
                if os.path.isdir(self.store_path(name)))
        except FileNotFoundError:
            return []

    def _models_for(self, dataset_name):
        """Model trio + dataset for a job, cached for the daemon's life."""
        if dataset_name not in self._trios:
            self._trios[dataset_name] = self._model_source(
                dataset_name, self.scale, self.seed)
        return self._trios[dataset_name]

    # -- public surface (called by the server and by tests) -----------------
    def submit(self, spec):
        """Validate + enqueue a job; returns the :class:`Job`.

        Fails fast — before the job ever reaches a worker — when the
        target store is locked by a live outside process or the queue
        is saturated.
        """
        spec = normalize_spec(spec)
        holder = lock_holder(self.store_path(spec["store"]))
        if holder is not None:
            raise StoreLockedError(self.store_path(spec["store"]), holder)
        with self._wake:
            job = self.queue.submit(spec)
            self._wake.notify_all()
        return job

    def status(self, job_id=None):
        """All jobs (as dicts), or one job's dict; raises on unknown id."""
        with self._lock:
            if job_id is not None:
                return self.queue.get(job_id).to_dict()
            return [job.to_dict() for job in self.queue.jobs()]

    def counts(self):
        with self._lock:
            jobs = self.queue.jobs()
        return {status: sum(1 for j in jobs if j.status == status)
                for status in ("queued", "running", "done", "failed")}

    # -- worker pool --------------------------------------------------------
    def start(self):
        """Spawn the worker threads (and, under ``compact_every``, the
        housekeeper); returns self."""
        for index in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"farm-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.compact_every is not None:
            self._housekeeper = threading.Thread(
                target=self._housekeeping_loop, name="farm-housekeeper",
                daemon=True)
            self._housekeeper.start()
        return self

    def drain(self, timeout=None):
        """Graceful shutdown: finish in-flight waves, release the rest.

        Blocks until every worker thread exits (or ``timeout``).  Jobs
        interrupted at a wave boundary go back to queued with their
        progress checkpointed in their stores.
        """
        with self._wake:
            self._draining = True
            self._wake.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        joinable = list(self._threads)
        if self._housekeeper is not None:
            joinable.append(self._housekeeper)
        for thread in joinable:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            thread.join(remaining)
        if self._housekeeper is not None \
                and not self._housekeeper.is_alive():
            self._housekeeper = None
        self._threads = [t for t in self._threads if t.is_alive()]
        if not self._threads:
            self._daemon_lock.release()
        return not self._threads

    @property
    def draining(self):
        return self._draining

    def _worker_loop(self):
        try:
            self._claim_and_run()
        finally:
            pool = getattr(self._engines, "pool", None)
            if pool is not None:
                pool.close()

    def _claim_and_run(self):
        while True:
            with self._wake:
                job = None
                while not self._draining:
                    job = self.queue.claim()
                    if job is not None:
                        break
                    self._wake.wait(_POLL_INTERVAL)
                if job is None:
                    return      # draining and nothing claimed
            released = False
            try:
                result, finished = self._execute(job)
                with self._wake:
                    if finished:
                        self.queue.mark_done(job.job_id, result)
                    else:
                        # Drained mid-job at a wave boundary.
                        self.queue.release(job.job_id)
                        released = True
                    self._wake.notify_all()
            except BaseException as error:    # noqa: BLE001 — a worker
                # must survive anything a job throws (including
                # injected faults) and convert it into retry state.
                # Library errors are deterministic rejections (bad spec,
                # identity mismatch): retrying them re-fails identically,
                # so they park immediately instead of burning backoff.
                with self._wake:
                    self.queue.mark_failed(
                        job.job_id, error,
                        permanent=isinstance(error, ReproError))
                    self._wake.notify_all()
                if isinstance(error, (KeyboardInterrupt, SystemExit)):
                    raise
            if released and self._draining:
                return

    # -- job execution ------------------------------------------------------
    def _execute(self, job):
        """Run one claimed job; returns ``(result_dict, finished)``."""
        fault_point("farm.job.start")
        # The queue keeps this daemon's other jobs off the store; the
        # StoreLock (pid-keyed file, released on any exit) keeps other
        # *processes* off it.
        store_path = self.store_path(job.store)
        if job.spec["kind"] == "compact-merge":
            # Pure store-to-store work: no models, no dataset.
            with StoreLock(store_path, owner=f"farm-job:{job.job_id}"):
                return self._run_compact_merge(job, store_path), True
        if job.spec["dataset"] not in PAPER_HYPERPARAMS:
            raise FarmError(
                f"unknown dataset {job.spec['dataset']!r}; want one of "
                f"{sorted(PAPER_HYPERPARAMS)}")
        models, dataset = self._models_for(job.spec["dataset"])
        with StoreLock(store_path, owner=f"farm-job:{job.job_id}"):
            if job.spec["kind"] == "generate":
                return self._run_generate(job, models, dataset,
                                          store_path), True
            if job.spec["kind"] == "compact-distill":
                return self._run_compact_distill(
                    job, models, dataset, store_path), True
            return self._run_fuzz(job, models, dataset, store_path)

    def _pool_for(self, models, workers):
        """This thread's engine pool for ``models``: the one it holds, or
        a fresh one when there is none, it has closed (a process died)
        or it serves another trio or ``workers`` count."""
        pool = getattr(self._engines, "pool", None)
        if pool is None or pool.closed or pool.workers != workers \
                or not pool.serves(models):
            if pool is not None:
                pool.close()
            pool = self._engines.pool = CampaignPool(models, workers)
        return pool

    def _federate_runner(self, job):
        """Ledger runner for a federate job's shared campaign dir."""
        # Imported lazily: repro.dist imports the farm client for its
        # RPC transports, so a top-level import here would be a cycle.
        from repro.dist.shards import DEFAULT_LEASE, LedgerShardRunner
        lease = job.spec.get("lease")
        return LedgerShardRunner(job.spec["campaign"],
                                 host=f"{socket.gethostname()}"
                                      f"/{job.job_id}",
                                 lease=(DEFAULT_LEASE if lease is None
                                        else float(lease)))

    def _run_fuzz(self, job, models, dataset, store_path):
        """Advance the store to the job's target rounds, wave by wave.

        Waves run one at a time so the drain flag is honoured at wave
        boundaries — exactly the granularity the store checkpoints at,
        which is what lets a released job resume losslessly.  A
        ``federate`` job is this same loop with a ledger-backed
        ``shard_runner`` splitting each wave across hosts.
        """
        spec = job.spec
        session = FuzzSession(
            store_path, models, PAPER_HYPERPARAMS[spec["dataset"]],
            constraint_for_dataset(dataset, kind=spec["constraint"]),
            task=dataset.task, wave_size=spec["wave_size"],
            workers=spec["workers"], shard_size=spec["shard_size"],
            seed=spec["seed"],
            rule=make_rule(spec["ascent"], beta=spec["beta"],
                           overshoot=spec["overshoot"]),
            dataset=dataset, initial_seed_count=spec["seeds"])
        shard_runner = (self._federate_runner(job)
                        if spec["kind"] == "federate"
                        else self._pool_for(models, spec["workers"]))
        new_tests = 0
        while session.completed_rounds < spec["rounds"]:
            if self._draining:
                return self._fuzz_result(session, new_tests), False
            fault_point("farm.wave")
            report = session.run(session.completed_rounds + 1,
                                 shard_runner=shard_runner)
            new_tests += report.new_tests
            if report.waves_run == 0:
                break               # scheduler has no pending seeds
        return self._fuzz_result(session, new_tests), True

    @staticmethod
    def _fuzz_result(session, new_tests):
        return {"completed_rounds": session.completed_rounds,
                "new_tests": int(new_tests),
                "entries": len(session.store),
                "mean_coverage": float(session.mean_coverage())}

    def _run_generate(self, job, models, dataset, store_path):
        """One deterministic generation pass absorbed into the store.

        Trackers start empty so the pass is a pure function of the job
        spec (see :mod:`repro.farm.jobs`); the commit OR-merges into
        whatever coverage the store already holds.  Re-running after a
        crash therefore reproduces the same entries (content-addressed
        no-ops) and the same merged coverage.
        """
        spec = job.spec
        hp = PAPER_HYPERPARAMS[spec["dataset"]]
        store = CorpusStore(store_path)
        store.bind_config(corpus_fingerprint(models, hp, dataset.task))
        trackers = [NeuronCoverageTracker(m, threshold=hp.threshold)
                    for m in models]
        seeds, _ = dataset.sample_seeds(
            min(spec["seeds"], dataset.x_test.shape[0]),
            np.random.default_rng(spec["seed"] + 1))
        campaign = Campaign(
            models, hp, constraint_for_dataset(dataset,
                                               kind=spec["constraint"]),
            task=dataset.task, trackers=trackers, workers=spec["workers"],
            shard_size=spec["shard_size"], seed=spec["seed"] + 2,
            rule=make_rule(spec["ascent"], beta=spec["beta"],
                           overshoot=spec["overshoot"]))
        result = campaign.run(seeds, shard_runner=self._pool_for(
            models, spec["workers"]))
        new_tests = store.absorb(seeds, result, models, trackers)
        return {"seeds_processed": int(result.seeds_processed),
                "differences": int(result.difference_count),
                "new_tests": new_tests,
                "entries": len(store)}

    # -- background compaction ----------------------------------------------
    def _run_compact_merge(self, job, store_path):
        """Pull the spec's source stores into the (archive) destination.

        :func:`repro.dist.sync.pull` reads each source through
        :meth:`CorpusStore.snapshot`, so sources may be mid-fuzz under
        another job or another daemon — the pull takes a
        crash-consistent prefix and a later sweep picks up the rest.
        Only the destination is locked.
        """
        from repro.dist.sync import pull
        dest = CorpusStore(store_path)
        added, merged = 0, 0
        for name in job.spec["sources"]:
            source_path = self.store_path(name)
            if not os.path.isdir(source_path):
                raise FarmError(
                    f"compact-merge source store {name!r} does not exist")
            added += pull(dest, source_path)
            merged += 1
        return {"merged_sources": merged, "new_entries": added,
                "entries": len(dest)}

    def _run_compact_distill(self, job, models, dataset, store_path):
        """Shrink a store to a coverage-preserving regression suite.

        :meth:`CorpusStore.distill` without requiring the session's
        deterministic identity; it prunes any committed fuzz scheduler
        of the dropped hashes itself.
        """
        spec = job.spec
        hp = PAPER_HYPERPARAMS[spec["dataset"]]
        store = CorpusStore(store_path, create=False)
        threshold = (store.config or {}).get("threshold", hp.threshold)
        store.bind_config(corpus_fingerprint(models, hp, dataset.task))
        kept, dropped = store.distill(models, threshold=float(threshold))
        return {"kept_tests": int(kept), "dropped": int(dropped),
                "entries": len(store)}

    def _housekeeping_loop(self):
        """A compaction sweep every ``compact_every`` seconds."""
        while True:
            with self._wake:
                self._wake.wait(self.compact_every)
                if self._draining:
                    return
            try:
                self._compact_sweep()
            except Exception:   # noqa: BLE001 — a sweep must never
                pass            # kill the housekeeper; next tick retries

    @staticmethod
    def _dataset_for_config(config):
        """Infer which dataset a tenant store was built against.

        The store's config fingerprint records its model trio; the trio
        registry maps straight back to the dataset.  ``None`` when the
        store has no config yet (nothing committed) or the models are
        not a registry trio.
        """
        if not config:
            return None
        from repro.models import TRIOS
        for dataset_name, trio in TRIOS.items():
            if list(trio) == list(config.get("models", [])):
                return dataset_name
        return None

    def _compact_sweep(self):
        """Submit one ``compact-distill`` per distillable tenant store.

        Skips stores that already have a compaction queued or running,
        stores another job is using, stores that fail to open or to
        list their entries, and stores whose dataset cannot be
        inferred; queue saturation just means this sweep waits for the
        next tick.  Returns the job ids it submitted.
        """
        with self._lock:
            busy = self.queue.active_stores()
            pending = {job.store for job in self.queue.jobs()
                       if job.status in ("queued", "running")
                       and job.spec["kind"].startswith("compact")}
        submitted = []
        for name in self.store_names():
            if name in busy or name in pending:
                continue
            try:
                store = CorpusStore(self.store_path(name), create=False)
                if not store.entries(kind="test"):
                    continue        # nothing distillable yet
            except ReproError:
                continue            # garbled: a distill would fail too
            dataset_name = self._dataset_for_config(store.config)
            if dataset_name is None or dataset_name not in \
                    PAPER_HYPERPARAMS:
                continue
            try:
                job = self.submit({"kind": "compact-distill",
                                   "store": name,
                                   "dataset": dataset_name})
            except FarmError:
                continue            # saturated or locked: next tick
            submitted.append(job.job_id)
        return submitted

    # -- federation surface (the dist-layer RPC verbs) -----------------------
    def _sync_store(self, name):
        """Check a store verb's store name; returns ``(name, store,
        lock)``: the store's long-lived read handle and its lock.

        The name must be a path-safe store name (the rule job specs
        use) naming an existing tenant store; the handle of a store
        that is gone is dropped.  A store a live foreign process has
        locked is a retryable :class:`StoreLockedError`.
        """
        if name is None:
            raise FarmError("store verb needs a store name")
        name = check_store_name(name)
        store_path = self.store_path(name)
        if not os.path.isdir(store_path):
            with self._lock:
                self._readers.pop(name, None)
            raise FarmError(f"no store named {name!r} on this farm")
        holder = lock_holder(store_path)
        if holder is not None:
            raise StoreLockedError(store_path, holder)
        with self._lock:
            reader = self._readers.get(name)
        if reader is None:
            opened = (CorpusStore(store_path, create=False),
                      threading.Lock())
            with self._lock:
                reader = self._readers.setdefault(name, opened)
        return (name, *reader)

    def store_manifest(self, name, have=None):
        """Crash-consistent manifest of one tenant store (read verb).

        ``have`` is the delta filter: the hashes the caller already
        holds, so the reply's entry list carries only what it lacks.
        Config and coverage are always included — they merge rather
        than dedup.
        """
        from repro.dist.sync import encode_coverage
        name, store, lock = self._sync_store(name)
        # Only a set filter, so any strings will do: a warm re-pull
        # sends every hash the puller holds, too many to regex each.
        if have is not None and not (
                isinstance(have, list)
                and all(isinstance(h, str) for h in have)):
            raise FarmError("store-manifest have must be a list of "
                            "entry hashes")
        with lock:
            snap = store.snapshot(exclude_hashes=have)
        return {"config": snap["config"],
                "generation": snap["generation"],
                "entries": snap["entries"],
                "coverage": {model: encode_coverage(state)
                             for model, state
                             in snap["coverage"].items()}}

    def store_entry(self, name, entry_hash):
        """One content-addressed input as ``.npy`` bytes (read verb)."""
        reply = self.store_entries(name, [entry_hash])
        return reply["entries"][0]

    def store_entries(self, name, hashes):
        """A batch of content-addressed inputs in one reply (read verb).

        The batched half of corpus pull: N entries per round-trip
        instead of one.  Order matches the request; an unknown hash
        fails the whole batch (sync always asks for hashes it just saw
        in a manifest, so a miss means the caller's view is stale).
        Each hash becomes a file name, so anything but a SHA-256 hex
        digest is refused before any input is read.
        """
        from repro.dist.sync import encode_array
        name, store, _ = self._sync_store(name)
        if not isinstance(hashes, list) or not all(
                isinstance(h, str) and _ENTRY_HASH.fullmatch(h)
                for h in hashes):
            raise FarmError("store-entries hashes must be a list of "
                            "64-digit lowercase hex entry hashes")
        entries = []
        for entry_hash in hashes:
            if not os.path.exists(store.input_path(entry_hash)):
                raise FarmError(f"store {name!r} has no entry "
                                f"{entry_hash[:12]}…")
            entries.append({"hash": entry_hash,
                            "data": encode_array(
                                store.load_input(entry_hash))})
        return {"entries": entries}

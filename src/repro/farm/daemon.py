"""The farm daemon: a long-lived, multi-tenant fuzzing campaign service.

One :class:`FarmDaemon` owns a *farm root* directory::

    root/
      queue.json            # journaled job queue (atomic JSON)
      daemon.json           # live endpoint record (written by the server)
      LOCK                  # daemon liveness lock (pid-checked)
      stores/<name>/        # one corpus store per tenant

and runs a fixed pool of worker *threads* that pull jobs from the
queue.  The daemon loads each dataset's model trio once, and every
thread runs its jobs' campaign shards on those same objects: a
:class:`~repro.nn.network.Network` leaves no state on itself when it
runs, and each ascent engine keeps its own scratch buffers, so threads
can share a trio.  A job may still fan out its own campaign worker
*processes* when its spec asks for ``workers > 1``.

Crash story (the tentpole contract): every durable structure already
survives ``kill -9`` — the queue journal is atomic, running jobs
re-queue on reload, and corpus stores checkpoint per wave — so a
daemon killed mid-wave restarts, re-claims the interrupted job, and
the resumed store converges bit-identically to an uninterrupted run.
``tests/farm/`` pins exactly that with deterministic fault injection
(:mod:`repro.utils.faults`).

Graceful drain: :meth:`drain` stops workers at the next *wave
boundary*; the interrupted job is released back to queued (not a
failure, no attempt burned) with its progress in the store checkpoint.

Beyond the job queue, a daemon is also a *federation peer* (see
``repro.dist`` and docs/DISTRIBUTED.md): it answers gossip (``peers``)
and the read-only store verbs a puller uses (``store-manifest`` /
``store-entry`` / ``store-entries``), executes single campaign shards
for remote drivers (``run-shard``), runs ledger-federated fuzz jobs
(kind ``federate``), and — when started with ``compact_every`` —
keeps its tenant stores bounded by scheduling ``compact-distill`` jobs
in the background.

No verb writes into a tenant store, so each store has one writer: the
job the queue handed it to (the queue never runs two jobs on one
store).  The read verbs go through :meth:`CorpusStore.snapshot`, which
is safe against that writer.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time

import numpy as np

from repro.core import (Campaign, PAPER_HYPERPARAMS, constraint_for_dataset,
                        make_rule)
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

#: Housekeeper cadence when no compaction schedule is set: how often
#: peer gossip (and the auto-discovery it feeds) refreshes.
_GOSSIP_INTERVAL = 5.0

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
        Seconds between background compaction sweeps (``None``
        disables).  Each sweep submits a ``compact-distill`` job per
        tenant store that has grown since its last distillation, so an
        unattended farm root stays bounded without an operator.
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
        self._housekeeper = None
        self.compact_every = (None if compact_every is None
                              else float(compact_every))
        if self.compact_every is not None and self.compact_every <= 0:
            raise FarmError(
                f"compact_every must be > 0, got {self.compact_every}")
        #: Latest gossip heard from each configured peer (the ``peers``
        #: verb returns it alongside our own).
        self._peer_state = {}
        #: One pooled PeerClient per peer — the gossip housekeeper
        #: reuses channels across ticks instead of redialing.
        self._peer_clients = {}
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
        """Spawn the worker threads (and housekeeper); returns self."""
        for index in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"farm-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        # The housekeeper always runs — peer gossip (and the auto-
        # discovery it feeds) must not depend on opting into
        # compaction; only the compaction sweep is gated on
        # ``compact_every``.
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

    def _federate_runner(self, job, store):
        """Ledger runner for a federate job's shared campaign dir."""
        # Imported lazily: repro.dist imports the farm client for its
        # RPC transports, so a top-level import here would be a cycle.
        from repro.dist.shards import DEFAULT_LEASE, LedgerShardRunner
        lease = job.spec.get("lease")
        return LedgerShardRunner(job.spec["campaign"],
                                 host=f"{socket.gethostname()}"
                                      f"/{job.job_id}",
                                 lease=(DEFAULT_LEASE if lease is None
                                        else float(lease)),
                                 # Locality-aware claiming: prefer
                                 # shards whose seeds this tenant store
                                 # already holds.
                                 have=store)

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
        shard_runner = (self._federate_runner(job, session.store)
                        if spec["kind"] == "federate" else None)
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
        result = campaign.run(seeds)
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
        """Periodic background sweeps: compaction + peer gossip refresh."""
        while True:
            with self._wake:
                self._wake.wait(self.compact_every
                                if self.compact_every is not None
                                else _GOSSIP_INTERVAL)
                if self._draining:
                    return
            if self.compact_every is not None:
                try:
                    self._compact_sweep()
                except Exception:   # noqa: BLE001 — a sweep must never
                    pass            # kill the housekeeper; next tick retries
            try:
                self.poll_peers()
            except Exception:       # noqa: BLE001
                pass

    def _dataset_for_store(self, name):
        """Infer which dataset a tenant store was built against.

        The store's config fingerprint records its model trio; the trio
        registry maps straight back to the dataset.  ``None`` when the
        store has no config yet (nothing committed) or the models are
        not a registry trio.
        """
        try:
            config = CorpusStore(self.store_path(name),
                                 create=False).config
        except ReproError:
            return None
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
        stores another job is using, and stores whose dataset cannot be
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
            except ReproError:
                continue
            if not store.entries(kind="test"):
                continue            # nothing distillable yet
            dataset_name = self._dataset_for_store(name)
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
    def gossip(self):
        """What this daemon tells its peers: load + store generations."""
        stores = {}
        for name in self.store_names():
            manifest_path = os.path.join(self.store_path(name),
                                         "MANIFEST.json")
            try:
                with open(manifest_path, "r", encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except (FileNotFoundError, ValueError):
                continue
            stores[name] = {
                "entries": int(manifest.get("entries", 0)),
                "coverage_gen": int(manifest.get("coverage_gen", 0))}
        counts = self.counts()
        from repro.dist.coordinator import PeerList
        return {"root": self.root,
                "pid": os.getpid(),
                "draining": bool(self._draining),
                "counts": counts,
                "queue_depth": counts["queued"] + counts["running"],
                "stores": stores,
                "peers": [f"{host}:{port}" for host, port
                          in PeerList(self.root).peers()]}

    def _peer_client(self, host, port):
        key = (str(host), int(port))
        with self._lock:
            client = self._peer_clients.get(key)
            if client is None:
                from repro.farm.client import PeerClient
                client = PeerClient(host, port, timeout=2.0)
                self._peer_clients[key] = client
            return client

    def poll_peers(self):
        """Refresh gossip from every configured peer; returns the map.

        Unreachable peers record their error string instead of gossip —
        the federation tolerates them by design, so this never raises.
        Peers-of-peers heard in gossip are folded into the persisted
        :class:`~repro.dist.coordinator.PeerList` (capped, dedup'd,
        never ourselves), so a fleet needs one ``repro join`` per new
        host, not one per pair.
        """
        from repro.dist.coordinator import PeerList, parse_peer
        from repro.farm.server import read_endpoint
        peer_list = PeerList(self.root)
        state = {}
        heard = []
        for host, port in peer_list.peers():
            key = f"{host}:{port}"
            client = self._peer_client(host, port)
            try:
                reply = client.peers()
                state[key] = {"ok": True, "gossip": reply["gossip"]}
                heard.extend(reply["gossip"].get("peers") or [])
            except Exception as error:      # noqa: BLE001 — down peers
                state[key] = {"ok": False, "error": str(error)}
        endpoint = read_endpoint(self.root)
        ourselves = (set() if endpoint is None
                     else {f"{endpoint['host']}:{endpoint['port']}"})
        known = {f"{host}:{port}" for host, port in peer_list.peers()}
        for text in heard:
            try:
                host, port = parse_peer(text)
            except ReproError:
                continue        # a peer gossiped garbage; skip it
            key = f"{host}:{port}"
            if key in ourselves or key in known:
                continue
            if peer_list.add(host, port, via="gossip"):
                known.add(key)
        with self._lock:
            self._peer_state = state
        return state

    def peer_state(self):
        with self._lock:
            return dict(self._peer_state)

    def _sync_store(self, name):
        """Check a store verb's store name; returns ``(name, path)``.

        The name must be a path-safe store name (the rule job specs
        use) naming an existing tenant store.  A store a live foreign
        process has locked is a retryable :class:`StoreLockedError`.
        """
        if name is None:
            raise FarmError("store verb needs a store name")
        name = check_store_name(name)
        store_path = self.store_path(name)
        if not os.path.isdir(store_path):
            raise FarmError(f"no store named {name!r} on this farm")
        holder = lock_holder(store_path)
        if holder is not None:
            raise StoreLockedError(store_path, holder)
        return name, store_path

    def store_manifest(self, name, have=None):
        """Crash-consistent manifest of one tenant store (read verb).

        ``have`` is the delta filter: the hashes the caller already
        holds, so the reply's entry list carries only what it lacks.
        Config and coverage are always included — they merge rather
        than dedup.
        """
        from repro.dist.sync import encode_coverage
        name, store_path = self._sync_store(name)
        # Only a set filter, so any strings will do: a warm re-pull
        # sends every hash the puller holds, too many to regex each.
        if have is not None and not (
                isinstance(have, list)
                and all(isinstance(h, str) for h in have)):
            raise FarmError("store-manifest have must be a list of "
                            "entry hashes")
        snap = CorpusStore(store_path, create=False).snapshot(
            exclude_hashes=have)
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
        name, store_path = self._sync_store(name)
        if not isinstance(hashes, list) or not all(
                isinstance(h, str) and _ENTRY_HASH.fullmatch(h)
                for h in hashes):
            raise FarmError("store-entries hashes must be a list of "
                            "64-digit lowercase hex entry hashes")
        store = CorpusStore(store_path, create=False)
        entries = []
        for entry_hash in hashes:
            if not os.path.exists(store.input_path(entry_hash)):
                raise FarmError(f"store {name!r} has no entry "
                                f"{entry_hash[:12]}…")
            entries.append({"hash": entry_hash,
                            "data": encode_array(
                                store.load_input(entry_hash))})
        return {"entries": entries}

    def run_shard(self, request):
        """Execute one campaign shard for a remote driver (RPC verb).

        The request carries the campaign's full deterministic identity
        — rule, constraint kind, task, dtype, tracker states, and the
        shard itself with its SeedSequence identity — so the outcome is
        bit-identical to the driver running the shard locally.  The
        model fingerprint is validated first: a peer whose zoo resolves
        a different trio (other scale, other seed) must refuse, not
        compute garbage.
        """
        from repro.core import resolve_models, rule_from_identity
        from repro.dist.coordinator import decode_shard
        from repro.dist.shards import encode_outcome
        from repro.dist.sync import decode_coverage
        from repro.farm.wire import Blob
        dataset_name = request.get("dataset")
        if dataset_name not in PAPER_HYPERPARAMS:
            raise FarmError(
                f"unknown dataset {dataset_name!r}; want one of "
                f"{sorted(PAPER_HYPERPARAMS)}")
        models, dataset = self._models_for(dataset_name)
        dtype = request.get("dtype")
        if dtype not in (None, "float32", "float64"):
            raise FarmError(f"run-shard dtype must be float32 or float64, "
                            f"got {dtype!r}")
        if dtype is not None and any(str(m.dtype) != dtype for m in models):
            models = resolve_models(models, dtype=dtype)
        kind = request.get("constraint", "default")
        if not isinstance(kind, str):
            raise FarmError(f"run-shard constraint must be a name, "
                            f"got {kind!r}")
        hp = PAPER_HYPERPARAMS[dataset_name]
        task = request.get("task", dataset.task)
        fingerprint = request.get("fingerprint")
        mine = corpus_fingerprint(models, hp, task)
        if fingerprint is not None and fingerprint != mine:
            raise FarmError(
                f"shard fingerprint mismatch: driver has {fingerprint!r}, "
                f"this peer resolves {mine!r} — mixed scales or model "
                "architectures cannot federate")
        shard = decode_shard(request.get("shard"))
        payloads = request.get("trackers")
        if not isinstance(payloads, list) or len(payloads) != len(models):
            raise FarmError(
                f"run-shard needs a list of one tracker state per model "
                f"({len(models)})")
        tracker_states = [decode_coverage(payload) for payload in payloads]
        campaign = Campaign(
            models, hp, constraint_for_dataset(dataset, kind=kind),
            task=task, workers=1,
            shard_size=max(1, len(shard.seeds)),
            rule=rule_from_identity(request.get("ascent", "vanilla")),
            absorb_exhausted=bool(request.get("absorb_exhausted", True)))
        outcome = campaign.execute_shard(tracker_states, shard)
        return {"shard_index": int(outcome["shard_index"]),
                "outcome": Blob(encode_outcome(outcome))}

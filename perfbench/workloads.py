"""The three benchmark workloads: fixed work, exact counts, checked outputs.

Each workload drives public entry points of ``repro`` from outside:

* ``fuzz-mnist`` — :class:`~repro.corpus.FuzzSession` on the LeNet trio
  at float32, one wave per ``run(completed_rounds + 1)`` call.
* ``farm-pdf`` — an in-process :class:`~repro.farm.FarmDaemon` with two
  worker threads, fed one-wave ``fuzz`` jobs in a closed loop.
* ``federate-driving`` — a ledger-federated
  :class:`~repro.dist.FederatedSession` on the Dave trio at float32,
  then cold and warm pulls of its store over TCP.

Every workload ends by mirroring its finished store into fresh stores
(cold) and again into an up-to-date one (warm), the way results leave a
host: over the shared filesystem for the first two, over the farm wire
protocol for the third.

The work a run does is a pure function of the workload seed and the
size; nothing is sized by elapsed time, so counts repeat exactly and
double as output checks.  Seed pools are the smoke-scale test inputs,
tiled and perturbed with seeded noise.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = ["WORKLOADS", "Sizes", "RunResult", "CheckFailed",
           "FsyncCounter", "sizes_for"]

#: Seconds between job-status polls of the farm client loop.
FARM_POLL_S = 0.01

#: Warm re-pulls per run into an up-to-date mirror.
WARM_MIRRORS = 40

#: Work per ``--seconds`` second: waves (fuzz-mnist, federate-driving)
#: or one-wave jobs (farm-pdf), about what the reference machine runs.
UNITS_PER_SECOND = {"fuzz-mnist": 5, "farm-pdf": 7.5, "federate-driving": 5}

#: Noise added to tiled test images, in pixel units of [0, 1].
IMAGE_NOISE = 0.02


class CheckFailed(Exception):
    """An output check failed: the run's numbers must not be reported."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    """How much work one run does (everything a count depends on)."""

    units: int               # waves (fuzz, federate) or jobs (farm)
    pool: int                # seeds in the pool (per tenant on the farm)
    tenants: int = 0         # farm-pdf only


def sizes_for(workload, seconds):
    """The fixed work for a ``--seconds`` budget (see
    :data:`UNITS_PER_SECOND`), at least one unit."""
    units = max(1, int(round(UNITS_PER_SECOND[workload] * seconds)))
    if workload == "fuzz-mnist":
        return Sizes(units=units, pool=1024)
    if workload == "farm-pdf":
        return Sizes(units=units, pool=120, tenants=4)
    if workload == "federate-driving":
        return Sizes(units=units, pool=2048)


@dataclass
class RunResult:
    """What one timed run measured (untraced numbers) plus its outputs."""

    seeds_scheduled: int = 0
    new_tests: int = 0
    mean_coverage: float = 0.0
    entries_digest: str = ""
    # Timings are in reference seconds (see calibrate.py) unless the
    # name says raw.
    step_seconds: list = field(default_factory=list)   # per wave / job
    step_region_s: float = 0.0        # the wave/job phase
    raw_step_region_s: float = 0.0
    mirror_entries: int = 0           # copied by cold mirrors
    mirror_seconds: float = 0.0       # that took
    remirror_seconds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0               # raw wall of the timed region,
    calibration_s: float = 0.0        # of which calibration loops
    region: tuple = (0.0, 0.0)        # perf_counter bounds of it
    extra: dict = field(default_factory=dict)


class FsyncCounter:
    """Counts ``os.fsync`` calls and does not issue them.

    Stores live inside the benchmark's checkout, which is on a disk,
    where one fsync costs 0.2-0.9 ms and swings from run to run; on
    tmpfs it costs nothing.  Counting without syncing measures the
    program as it runs on tmpfs, and the count still shows every
    durable write the program asks for.
    """

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()

    @contextmanager
    def installed(self):
        original = os.fsync

        def fsync(fd):
            with self._lock:
                self.count += 1
        os.fsync = fsync
        try:
            yield self
        finally:
            os.fsync = original


# -- shared helpers -----------------------------------------------------------
def _rng(seed, tag):
    return np.random.default_rng([int(seed), int(tag)])


def _tiled(x, count, rng):
    """``count`` rows of ``x``, whole seeded permutations back to back, so
    every seed draws (nearly) the same multiset of inputs and only their
    order and noise vary."""
    reps = -(-count // x.shape[0])
    order = np.concatenate([rng.permutation(x.shape[0])
                            for _ in range(reps)])[:count]
    return x[order]


def _image_pool(dataset, count, rng):
    """``count`` tiled test images plus seeded noise."""
    pool = _tiled(dataset.x_test, count, rng)
    pool = pool + rng.normal(0.0, IMAGE_NOISE, pool.shape)
    return np.clip(pool, 0.0, 1.0)


def _load(name, dtype=None):
    from repro.core import resolve_models
    from repro.datasets import load_dataset
    from repro.models import get_trio
    dataset = load_dataset(name, scale="smoke", seed=0)
    models = get_trio(name, scale="smoke", seed=0, dataset=dataset)
    if dtype is not None:
        models = resolve_models(models, dtype=dtype)
    return dataset, models


def _digest(labelled_hashes):
    digest = hashlib.sha256()
    for item in sorted(labelled_hashes):
        digest.update(item.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _mean_committed_coverage(store):
    """Mean neuron coverage from a store's committed snapshots (disk)."""
    values = []
    for _, state in sorted(store.coverage_states().items()):
        tracked = np.asarray(state["tracked"], dtype=bool)
        covered = np.asarray(state["covered"], dtype=bool) & tracked
        values.append(covered.sum() / tracked.sum() if tracked.sum() else 0.0)
    return float(np.mean(values))


def _check_scheduled(store, expected, label):
    """The committed scheduler recorded exactly ``expected`` seed visits
    (every wave was full); returns the seeds still pending."""
    from repro.corpus.scheduler import ENERGY_EPSILON
    entries = store.fuzz_state()["scheduler"]["entries"]
    visits = sum(int(e["visits"]) for e in entries)
    check(visits == expected, f"{label}: scheduler recorded {visits} seed "
                              f"visits, want {expected}")
    return sum(1 for e in entries
               if not e["retired"] and e["energy"] >= ENERGY_EPSILON)


def _check_tests_differ(store, models, task, label):
    """Every persisted test is difference-inducing under the trio: its
    recorded predictions disagree, and re-running the models on the
    stored input reproduces them."""
    from repro.core.oracle import RegressionOracle, make_oracle
    tests = store.entries(kind="test")
    if not tests:
        return
    oracle = make_oracle(models, task)
    x = store.load_inputs([e["hash"] for e in tests]).astype(
        models[0].dtype)
    recorded = np.asarray([e["predictions"] for e in tests]).T
    if task == "classification":
        recorded_differ = (recorded != recorded[0]).any(axis=0)
    else:
        bins = RegressionOracle.direction(recorded)
        spread = recorded.max(axis=0) - recorded.min(axis=0)
        recorded_differ = ((bins != bins[0]).any(axis=0)
                           | (spread > oracle.angle_spread))
    check(recorded_differ.all(),
          f"{label}: {int((~recorded_differ).sum())} stored test(s) "
          f"record agreeing predictions")
    differ = oracle.differs(x)
    check(differ.all(), f"{label}: {int((~differ).sum())} stored test(s) "
                        f"no longer make the models disagree")


def _waves(result, session, units, wave_size, cal):
    """Run ``units`` waves, one ``run(completed_rounds + 1)`` call each."""
    for _ in range(units):
        report, seconds, raw = cal.measure(
            lambda: session.run(session.completed_rounds + 1))
        result.step_seconds.append(seconds)
        result.step_region_s += seconds
        result.raw_step_region_s += raw
        result.attempted += 1
        if report.waves_run != 1 or \
                report.waves[0]["wave_size"] != wave_size:
            result.failed += 1
            continue
        result.seeds_scheduled += report.seeds_fuzzed
        result.new_tests += report.new_tests


@contextmanager
def _timed_region(result, cal):
    start, spent = time.perf_counter(), cal.spent
    yield
    end = time.perf_counter()
    result.region = (start, end)
    result.wall_s = end - start
    result.calibration_s = cal.spent - spent


def _mirror(result, make_sources, expected_hashes, expected_coverage,
            root, cal, cold=1, cold_check=None):
    """``cold`` cold pulls into fresh mirrors, then warm re-pulls into
    the first.

    ``make_sources()`` returns a fresh list of sources (one connection
    each, for the TCP case) whose union is what a mirror must end up
    holding: exactly ``expected_hashes`` and ``expected_coverage``
    (``{model: state}``).  Warm re-pulls must add nothing, in one round
    trip per source.
    """
    from repro.corpus import CorpusStore
    from repro.corpus.store import coverage_states_equal
    wire = result.extra.setdefault("wire", {
        "round_trips": 0, "bytes_sent": 0, "bytes_received": 0,
        "reconnects": 0})

    def close(sources):
        for source in sources:
            client = getattr(source, "client", None)
            if client is None:
                continue
            wire["round_trips"] += client.requests
            wire["bytes_sent"] += client.bytes_sent
            wire["bytes_received"] += client.bytes_received
            wire["reconnects"] += client.reconnects
            client.close()

    warm_sources = None
    for index in range(cold):
        path = os.path.join(root, f"mirror-{index}")
        current = make_sources()
        added, seconds = _pull(result, path, current, cal)
        check(added == len(expected_hashes),
              f"cold mirror {index} added {added} of "
              f"{len(expected_hashes)} entries")
        result.mirror_entries += added
        result.mirror_seconds += seconds
        mirror = CorpusStore(path, create=False)
        check({e["hash"] for e in mirror.entries()} == expected_hashes,
              f"cold mirror {index} holds other entries than its source")
        check(coverage_states_equal(mirror.coverage_states(),
                                    expected_coverage),
              f"cold mirror {index} coverage differs from its source")
        if cold_check is not None:
            cold_check(current)
        if index == 0:
            warm_sources = current
        else:
            close(current)
    path = os.path.join(root, "mirror-0")
    for _ in range(WARM_MIRRORS):
        before = [_requests(source) for source in warm_sources]
        added, seconds = _pull(result, path, warm_sources, cal)
        result.remirror_seconds.append(seconds)
        check(added == 0, f"warm re-mirror added {added} entries")
        for source, count in zip(warm_sources, before):
            if count is not None:
                check(_requests(source) - count == 1,
                      "warm re-pull took more than one round trip")
    close(warm_sources)


def _pull(result, path, sources, cal):
    """Pull every source into the store at ``path``; returns ``(added,
    reference seconds)``.  A pull that raises is a failed operation."""
    from repro.dist import sync
    from repro.errors import ReproError
    result.attempted += 1
    try:
        added, seconds, _ = cal.measure(
            lambda: sum(sync.pull(path, source) for source in sources))
    except (ReproError, OSError) as error:
        result.failed += 1
        raise CheckFailed(f"pull into {path} raised: {error}") from error
    return added, seconds


def _requests(source):
    client = getattr(source, "client", None)
    return None if client is None else client.requests


# -- fuzz-mnist ---------------------------------------------------------------
class FuzzMnist:
    """The paper's headline case: conv-heavy LeNet waves at float32."""

    name = "fuzz-mnist"
    wave_size = 16

    def setup(self, root, seed, sizes):
        from repro.core import PAPER_HYPERPARAMS, constraint_for_dataset
        from repro.corpus import FuzzSession
        dataset, models = _load("mnist", dtype="float32")
        pool = _image_pool(dataset, sizes.pool, _rng(seed, 1))
        session = FuzzSession(
            os.path.join(root, "store"), models, PAPER_HYPERPARAMS["mnist"],
            constraint_for_dataset(dataset, kind="light"),
            task=dataset.task, wave_size=self.wave_size,
            shard_size=self.wave_size, seed=int(seed), initial_seeds=pool)
        return {"root": root, "session": session, "models": models,
                "task": dataset.task, "sizes": sizes}

    def run(self, state, cal):
        from repro.dist import sync
        session, sizes = state["session"], state["sizes"]
        result = RunResult()
        store = session.store
        with _timed_region(result, cal):
            _waves(result, session, sizes.units, self.wave_size, cal)
            hashes = {e["hash"] for e in store.entries()}
            _mirror(result, lambda: [sync.LocalSource(store.path)], hashes,
                    store.coverage_states(), state["root"], cal)
        result.mean_coverage = session.mean_coverage()
        result.entries_digest = _digest(hashes)
        return result

    def check(self, state, result):
        from repro.corpus import CorpusStore
        session, sizes = state["session"], state["sizes"]
        check(result.failed == 0, f"{result.failed} wave(s) did not run a "
                                  f"full wave")
        check(result.seeds_scheduled == sizes.units * self.wave_size,
              f"scheduled {result.seeds_scheduled} seeds, want "
              f"{sizes.units * self.wave_size}")
        store = CorpusStore(session.store.path, create=False)
        check(store.fuzz_state()["completed_rounds"] == sizes.units,
              "checkpoint does not record every wave")
        result.extra["pending"] = _check_scheduled(
            store, sizes.units * self.wave_size, self.name)
        check(len(store.entries(kind="test")) == result.new_tests,
              "stored tests do not match the new tests reported")
        check(len(store.entries(kind="seed")) == sizes.pool,
              "stored seed pool has the wrong size")
        check(abs(_mean_committed_coverage(store) - result.mean_coverage)
              < 1e-12, "committed coverage differs from the session's")
        _check_tests_differ(store, state["models"], state["task"],
                            self.name)

    def teardown(self, state):
        pass


# -- farm-pdf -----------------------------------------------------------------
class FarmPdf:
    """Small dense models through the farm: per-job fixed costs dominate.

    Two client slots, one per daemon worker, each submit a one-wave job
    and wait for it; a round ends when both jobs have finished, and the
    calibration loop runs between rounds, with no job in flight.  Slot
    ``s`` owns tenants ``s, s + 2, ...`` and cycles through them, so
    every tenant receives a fixed number of jobs whatever the timing.
    """

    name = "farm-pdf"
    workers = 2
    wave_size = 8

    def setup(self, root, seed, sizes):
        from repro.core import PAPER_HYPERPARAMS, constraint_for_dataset
        from repro.corpus import FuzzSession
        from repro.farm import FarmDaemon
        dataset, models = _load("pdf")
        rng = _rng(seed, 2)
        mutable = np.asarray(dataset.metadata["mutable_mask"], dtype=bool)
        daemon = FarmDaemon(os.path.join(root, "farm"),
                            workers=self.workers,
                            model_source=lambda *_: (models, dataset))
        tenants = []
        for index in range(sizes.tenants):
            # Small counts added to the mutable features only, as the
            # PDF constraint itself does.
            pool = _tiled(dataset.x_test, sizes.pool, rng)
            pool = pool + rng.integers(0, 3, pool.shape) * mutable
            tenant_seed = int(rng.integers(0, 2 ** 31))
            name = f"tenant-{index}"
            FuzzSession(daemon.store_path(name), models,
                        PAPER_HYPERPARAMS["pdf"],
                        constraint_for_dataset(dataset),
                        task=dataset.task, wave_size=self.wave_size,
                        shard_size=self.wave_size, seed=tenant_seed,
                        initial_seeds=pool)
            tenants.append({"name": name, "seed": tenant_seed, "rounds": 0,
                            "pool": sizes.pool})
        daemon.start()
        return {"root": root, "daemon": daemon, "tenants": tenants,
                "models": models, "task": dataset.task, "sizes": sizes}

    def _submit(self, state, slot, result):
        from repro.farm.queue import QueueSaturatedError
        tenants = state["tenants"]
        owned = tenants[slot::self.workers]
        tenant = owned[state["turns"][slot] % len(owned)]
        state["turns"][slot] += 1
        spec = {"kind": "fuzz", "store": tenant["name"], "dataset": "pdf",
                "rounds": tenant["rounds"] + 1, "seeds": tenant["pool"],
                "wave_size": self.wave_size, "shard_size": self.wave_size,
                "seed": tenant["seed"]}
        while True:
            result.attempted += 1
            submitted = time.perf_counter()
            try:
                job = state["daemon"].submit(spec)
                break
            except QueueSaturatedError:
                # Refused: counts against fail_frac and, being a closed
                # loop, waits its turn rather than dropping the job.
                result.failed += 1
                time.sleep(FARM_POLL_S)
        tenant["rounds"] += 1
        return {"job": job.job_id, "submitted": submitted,
                "rounds": tenant["rounds"]}

    def run(self, state, cal):
        from repro.coverage import merge_state_dicts
        from repro.dist import sync
        daemon, sizes = state["daemon"], state["sizes"]
        result = RunResult()
        state["turns"] = [0] * self.workers
        state["finished"] = []
        with _timed_region(result, cal):
            for first in range(0, sizes.units, self.workers):
                slots = min(self.workers, sizes.units - first)
                latencies, seconds, raw = cal.measure(
                    lambda: self._round(state, slots, result))
                scale = seconds / raw
                result.step_seconds.extend(latency * scale
                                           for latency in latencies)
                result.step_region_s += seconds
                result.raw_step_region_s += raw
            stores = self._stores(state)
            hashes = {e["hash"] for store in stores
                      for e in store.entries()}
            merged = {}
            for store in stores:
                for model, cov in store.coverage_states().items():
                    merged[model] = (cov if model not in merged else
                                     merge_state_dicts(merged[model], cov))
            paths = [store.path for store in stores]
            _mirror(result,
                    lambda: [sync.LocalSource(path) for path in paths],
                    hashes, merged, state["root"], cal)
        result.mean_coverage = float(np.mean(
            [_mean_committed_coverage(store) for store in stores]))
        result.entries_digest = _digest(
            f"{store.path.rsplit(os.sep, 1)[-1]}/{e['hash']}"
            for store in stores for e in store.entries())
        jobs = daemon.status()
        result.extra["retries"] = sum(max(0, j["attempts"] - 1)
                                      for j in jobs)
        result.extra["jobs_failed"] = sum(j["status"] == "failed"
                                          for j in jobs)
        return result

    def _round(self, state, slots, result):
        """One job from each of the first ``slots`` client slots; returns
        each job's latency (submit to observed done)."""
        daemon = state["daemon"]
        in_flight = [self._submit(state, slot, result)
                     for slot in range(slots)]
        latencies = []
        while in_flight:
            time.sleep(FARM_POLL_S)
            for pending in list(in_flight):
                record = daemon.status(pending["job"])
                if record["status"] not in ("done", "failed"):
                    continue
                latency = time.perf_counter() - pending["submitted"]
                in_flight.remove(pending)
                job_result = record.get("result") or {}
                ok = (record["status"] == "done"
                      and job_result.get("completed_rounds")
                      == pending["rounds"])
                # A failed job, or one that ran no wave, misses every
                # latency limit: it enters the sample as infinite.
                latencies.append(latency if ok else math.inf)
                if ok:
                    result.seeds_scheduled += self.wave_size
                    result.new_tests += int(job_result["new_tests"])
                else:
                    result.failed += 1
                state["finished"].append((pending, record))
        return latencies

    def _stores(self, state):
        from repro.corpus import CorpusStore
        return [CorpusStore(state["daemon"].store_path(t["name"]),
                            create=False) for t in state["tenants"]]

    def check(self, state, result):
        sizes = state["sizes"]
        check(result.failed == 0, f"{result.failed} job(s) failed, were "
                                  f"refused, or ran no wave")
        check(len(state["finished"]) == sizes.units,
              f"{len(state['finished'])} of {sizes.units} jobs finished")
        for pending, record in state["finished"]:
            check(record["status"] == "done" and record["attempts"] == 1,
                  f"job {pending['job']} ended {record['status']} after "
                  f"{record['attempts']} attempt(s)")
        stores = self._stores(state)
        tests, pending = 0, []
        for tenant, store in zip(state["tenants"], stores):
            fuzz = store.fuzz_state()
            check(fuzz["completed_rounds"] == tenant["rounds"],
                  f"{tenant['name']} is at round {fuzz['completed_rounds']}"
                  f", want {tenant['rounds']}")
            pending.append(_check_scheduled(
                store, tenant["rounds"] * self.wave_size, tenant["name"]))
            tests += len(store.entries(kind="test"))
            _check_tests_differ(store, state["models"], state["task"],
                                tenant["name"])
        check(tests == result.new_tests,
              "stored tests do not match the jobs' new tests")
        result.extra["pending"] = min(pending)

    def teardown(self, state):
        daemon = state["daemon"]
        drained = daemon.drain(timeout=30.0)
        if not drained:
            raise CheckFailed("farm daemon did not drain in 30 s")


# -- federate-driving ---------------------------------------------------------
class FederateDriving:
    """A large store on the Dave trio, then pulled over TCP."""

    name = "federate-driving"
    wave_size = 16
    store = "origin"

    def setup(self, root, seed, sizes):
        from repro.core import PAPER_HYPERPARAMS, constraint_for_dataset
        from repro.corpus import FuzzSession
        from repro.dist import FederatedSession
        from repro.farm import FarmDaemon, FarmServer
        dataset, models = _load("driving", dtype="float32")
        pool = _image_pool(dataset, sizes.pool, _rng(seed, 3))
        daemon = FarmDaemon(os.path.join(root, "farm"))
        session = FuzzSession(
            daemon.store_path(self.store), models,
            PAPER_HYPERPARAMS["driving"],
            constraint_for_dataset(dataset, kind="light"),
            task=dataset.task, wave_size=self.wave_size,
            shard_size=self.wave_size, seed=int(seed), initial_seeds=pool)
        federated = FederatedSession(session, os.path.join(root, "campaign"),
                                     host="perfbench")
        server = FarmServer(daemon)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  name="perfbench-server", daemon=True)
        thread.start()
        return {"root": root, "daemon": daemon, "session": session,
                "federated": federated, "server": server, "thread": thread,
                "models": models, "task": dataset.task, "sizes": sizes}

    def run(self, state, cal):
        from repro.dist import sync
        federated, sizes = state["federated"], state["sizes"]
        session = state["session"]
        result = RunResult()
        with _timed_region(result, cal):
            _waves(result, federated, sizes.units, self.wave_size, cal)
            self._mirror_over_tcp(state, result, cal)
        result.mean_coverage = session.mean_coverage()
        result.entries_digest = _digest(
            e["hash"] for e in session.store.entries())
        return result

    def _mirror_over_tcp(self, state, result, cal):
        from repro.dist import sync
        session = state["session"]
        hashes = {e["hash"] for e in session.store.entries()}
        port = state["server"].port
        batches = 1 + math.ceil(len(hashes) / sync.DEFAULT_BATCH)

        def sources():
            return [sync.RemoteSource("127.0.0.1", port, self.store)]

        def cold_check(current):
            client = current[0].client
            check(client.requests == batches,
                  f"cold pull took {client.requests} round trips, want "
                  f"{batches}")

        _mirror(result, sources, hashes, session.store.coverage_states(),
                state["root"], cal, cold=3, cold_check=cold_check)

    def check(self, state, result):
        from repro.corpus import CorpusStore
        session, sizes = state["session"], state["sizes"]
        check(result.failed == 0, f"{result.failed} wave(s) did not run a "
                                  f"full wave")
        check(result.seeds_scheduled == sizes.units * self.wave_size,
              f"scheduled {result.seeds_scheduled} seeds, want "
              f"{sizes.units * self.wave_size}")
        store = CorpusStore(session.store.path, create=False)
        check(store.fuzz_state()["completed_rounds"] == sizes.units,
              "checkpoint does not record every wave")
        result.extra["pending"] = _check_scheduled(
            store, sizes.units * self.wave_size, self.name)
        check(len(store.entries(kind="test")) == result.new_tests,
              "stored tests do not match the new tests reported")
        check(abs(_mean_committed_coverage(store) - result.mean_coverage)
              < 1e-12, "committed coverage differs from the session's")
        _check_tests_differ(store, state["models"], state["task"],
                            self.name)

    def teardown(self, state):
        server, thread = state["server"], state["thread"]
        server.shutdown()
        thread.join(timeout=30.0)
        server.close()
        state["daemon"].drain(timeout=30.0)
        if thread.is_alive():
            raise CheckFailed("farm server thread did not stop in 30 s")


WORKLOADS = {w.name: w for w in (FuzzMnist(), FarmPdf(), FederateDriving())}

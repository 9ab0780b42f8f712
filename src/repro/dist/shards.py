"""Work-stealing shard ledger: who runs which shard, on which host.

A federated campaign round is a set of shards (the same contiguous
slices :func:`repro.core.campaign.shard_corpus` produces) plus a shared
**ledger** — one JSON file in a campaign directory every participating
host can reach (shared filesystem; on one box, any common path).  Hosts
claim shards from the ledger via lock-protected compare-and-swap, run
them through :meth:`Campaign.execute_shard`, and publish the outcome as
an ``.npz`` result file next to the ledger.  The scheme is
coordinator-less and work-stealing by construction: an idle host claims
the first unclaimed shard in shard-id order, and a claim whose owner
died (dead pid on the same host, expired lease otherwise) is stolen by
the next claimer.

Why this preserves bit-identity with a solo run (docs/DISTRIBUTED.md
has the full argument):

* Shard identity is ``(campaign seed, shard index)``.  The campaign
  seed pins every shard's spawned random stream
  (:func:`repro.utils.rng.spawn_seed_sequences` children depend only on
  the root identity and position), so a shard's outcome is a pure
  function of the shard — not of the host, the claim order, or the
  wall-clock.
* Every host loads **all** result files and merges them in shard-index
  order, the same order-independent merge a local campaign does.
* Double execution is harmless: a stolen shard re-run elsewhere writes
  a result with identical logical content (only timing floats differ,
  and those never reach the corpus), and result files land via atomic
  replace.

Ledger keys are derived from the campaign's seed via :func:`round_key`,
so one campaign directory serves every round of a multi-round fuzz
session without collisions.

Across machines the federation is :class:`FederatedSession`: every host
runs the same fuzz session against its own store replica and routes
each wave's shards through a :class:`LedgerShardRunner` over the shared
campaign directory.  Since every host merges every shard result, the
stores never need explicit syncing to stay identical.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import socket
import time
from contextlib import contextmanager

import numpy as np

from repro.core.engine import GeneratedTest, GenerationResult
from repro.corpus.store import input_hash
from repro.dist.sync import BAD_PAYLOAD
from repro.errors import FarmError
from repro.farm.locks import MAX_PID, _is_pid, _pid_alive
from repro.utils.atomicio import atomic_write_bytes, atomic_write_json
from repro.utils.faults import fault_point

__all__ = ["ShardLedger", "LedgerShardRunner", "FederatedSession",
           "round_key", "shard_id", "shard_digest", "encode_outcome",
           "decode_outcome", "DEFAULT_LEASE"]

LEDGER_VERSION = 1

#: A ledger shard entry's states, in lifecycle order.
SHARD_STATUSES = ("pending", "claimed", "done")

#: Seconds after which another host's claim may be stolen.  Claims by a
#: *local* dead pid are stolen immediately (pid liveness is checkable on
#: the same machine); the lease is the cross-host fallback.
DEFAULT_LEASE = 60.0


def _finite_number(value):
    """True for a JSON number that ``float()`` maps to a finite value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an integer past the float range
        return False


def _entry_problem(entry):
    """What is wrong with one ledger shard entry, or ``None``.

    A claim's ``host``, ``pid`` and ``claimed_at`` are checked where
    present: :meth:`ShardLedger.claim` compares, kills and subtracts
    them.  Any other field (the ``hashes`` earlier builds wrote) is
    ignored.
    """
    if not (isinstance(entry, dict)
            and isinstance(entry.get("digest"), str)
            and entry.get("status") in SHARD_STATUSES):
        return f"needs a string digest and a status in {SHARD_STATUSES}"
    if "host" in entry and not isinstance(entry["host"], str):
        return "has a host that is not a string"
    if not _is_pid(entry.get("pid", 1)):    # absent: nothing to check
        return f"has a pid that is not an integer in 1..{MAX_PID}"
    if "claimed_at" in entry and not _finite_number(entry["claimed_at"]):
        return "has a claimed_at that is not a finite number"
    return None


def round_key(seed):
    """Filesystem-safe ledger key for one campaign's seed identity.

    For a plain int seed: ``seed<N>``.  For a ``SeedSequence`` (what a
    :class:`~repro.corpus.session.FuzzSession` hands each round's
    campaign): the spawn-key path plus a digest of the full
    ``(entropy, spawn_key)`` identity — readable *and* collision-safe,
    and identical on every host because SeedSequence identity is pure
    data.
    """
    if isinstance(seed, np.random.SeedSequence):
        ident = repr((seed.entropy, tuple(int(k) for k in seed.spawn_key)))
        digest = hashlib.sha256(ident.encode("utf-8")).hexdigest()[:16]
        path = ".".join(str(int(k)) for k in seed.spawn_key) or "root"
        return f"r{path}-{digest}"
    return f"seed{int(seed)}"


def shard_id(shard_index):
    """Ledger id of one shard (sortable, fixed-width)."""
    return f"s{int(shard_index):05d}"


def shard_digest(shard):
    """Content digest of a shard: SHA-256 over its seeds' content hashes,
    joined by ``|`` in shard order.

    The seeds' content hashes are their corpus entry hashes (entry
    hashes *are* ``input_hash`` of the seed arrays), so the digest is a
    function of the scheduled wave's entry hashes alone.  Two hosts only
    agree to share a shard when they agree on its exact content.
    """
    hashes = [input_hash(x) for x in shard.seeds]
    return hashlib.sha256("|".join(hashes).encode("utf-8")).hexdigest()


# -- outcome serialization --------------------------------------------------
def encode_outcome(outcome):
    """Serialize one ``_run_shard`` outcome dict to ``.npz`` bytes.

    Test input arrays keep their exact dtype/bytes; everything scalar
    rides in a JSON header.  ``decode_outcome`` is the exact inverse of
    everything the corpus absorb path reads — timing floats round-trip
    too, but nothing downstream persists them.
    """
    result = outcome["result"]
    header = {
        "version": LEDGER_VERSION,
        "shard_index": int(outcome["shard_index"]),
        "seeds_processed": int(result.seeds_processed),
        "seeds_disagreed": int(result.seeds_disagreed),
        "seeds_exhausted": int(result.seeds_exhausted),
        "elapsed": float(result.elapsed),
        "tests": [{
            "seed_index": int(test.seed_index),
            "iterations": int(test.iterations),
            "predictions": np.asarray(test.predictions).tolist(),
            "seed_class": (None if test.seed_class is None
                           else json.loads(json.dumps(test.seed_class))),
            "elapsed": float(test.elapsed),
        } for test in result.tests],
        "coverage_configs": [{
            "network": state["network"],
            "total_neurons": int(state["total_neurons"]),
            "threshold": float(state["threshold"]),
            "scaled": bool(state["scaled"]),
        } for state in outcome["coverage"]],
    }
    arrays = {"header": np.array(json.dumps(header, sort_keys=True))}
    for i, test in enumerate(result.tests):
        arrays[f"test{i}_x"] = np.asarray(test.x)
    for i, state in enumerate(outcome["coverage"]):
        arrays[f"cov{i}_tracked"] = np.asarray(state["tracked"], dtype=bool)
        arrays[f"cov{i}_covered"] = np.asarray(state["covered"], dtype=bool)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def decode_outcome(path):
    """Inverse of :func:`encode_outcome`, read from the file at ``path``.

    Outcomes come from ledger result files that other hosts wrote, so
    a file that is not an outcome archive is a :class:`FarmError`
    naming it.
    """
    try:
        return _decode_outcome(path)
    except BAD_PAYLOAD as error:
        raise FarmError(f"bad shard result {path}: {error!r}") from None


def _decode_outcome(path):
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"][()]))
        tests = []
        for i, spec in enumerate(header["tests"]):
            tests.append(GeneratedTest(
                x=np.asarray(data[f"test{i}_x"]),
                seed_index=int(spec["seed_index"]),
                iterations=int(spec["iterations"]),
                predictions=np.asarray(spec["predictions"]),
                seed_class=spec["seed_class"],
                elapsed=float(spec["elapsed"])))
        coverage = []
        for i, config in enumerate(header["coverage_configs"]):
            state = dict(config)
            state["tracked"] = np.asarray(data[f"cov{i}_tracked"],
                                          dtype=bool)
            state["covered"] = np.asarray(data[f"cov{i}_covered"],
                                          dtype=bool)
            coverage.append(state)
    result = GenerationResult(
        tests=tests,
        seeds_processed=int(header["seeds_processed"]),
        seeds_disagreed=int(header["seeds_disagreed"]),
        seeds_exhausted=int(header["seeds_exhausted"]),
        elapsed=float(header["elapsed"]))
    return {"shard_index": int(header["shard_index"]),
            "result": result,
            "coverage": coverage}


# -- the ledger -------------------------------------------------------------
class ShardLedger:
    """Lock-protected CAS ledger over one round's shards.

    State machine per shard: ``pending`` → ``claimed`` (host, pid,
    claimed_at) → ``done``.  A ``claimed`` entry is *stale* — and thus
    claimable again — when its pid is dead (only checkable for claims
    made on this host) or its lease has expired.  Every mutation happens
    under a token-holding lock file, so two claimers — whether separate
    processes or two threads of one daemon — can never both win the
    same shard while the owner is healthy.

    ``host``/``pid``/``clock``/``lease`` are injectable for tests; the
    defaults identify the calling process.
    """

    def __init__(self, campaign_dir, round_key, host=None, pid=None,
                 lease=DEFAULT_LEASE, clock=time.time):
        self.dir = os.path.join(os.path.abspath(campaign_dir), "rounds",
                                str(round_key))
        self.results_dir = os.path.join(self.dir, "results")
        self.ledger_path = os.path.join(self.dir, "ledger.json")
        self._lock_path = os.path.join(self.dir, "LEDGER_LOCK")
        self.round_key = str(round_key)
        self.host = host if host is not None else socket.gethostname()
        self.pid = int(pid if pid is not None else os.getpid())
        self.lease = float(lease)
        self.clock = clock
        # The lock token must distinguish two threads of one process:
        # a daemon can host several federated jobs at once, and pid
        # alone (StoreLock's identity) would let them break each
        # other's lock mid-CAS.
        self._token = f"{self.host}:{self.pid}:{id(self)}"
        os.makedirs(self.results_dir, exist_ok=True)

    # -- CAS lock ------------------------------------------------------
    @contextmanager
    def _locked(self):
        payload = (json.dumps({"host": self.host, "pid": self.pid,
                               "token": self._token,
                               "time": float(self.clock())},
                              sort_keys=True) + "\n").encode("utf-8")
        while True:
            try:
                fd = os.open(self._lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                if self._lock_stale():
                    try:
                        os.unlink(self._lock_path)
                    except FileNotFoundError:
                        pass
                    continue
                time.sleep(0.005)
                continue
            # No fsync: the lock is transient, and a torn holder record
            # after a crash reads as stale and is broken (see
            # _lock_stale) — durability would buy nothing, and a disk
            # flush per CAS is the hot ledger path's whole cost.
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            break
        try:
            yield
        finally:
            try:
                os.unlink(self._lock_path)
            except FileNotFoundError:
                pass

    def _lock_stale(self):
        try:
            with open(self._lock_path, "r", encoding="utf-8") as handle:
                holder = json.load(handle)
        except (OSError, ValueError, RecursionError):
            return True     # torn or already gone: race for it
        if not (isinstance(holder, dict)
                and _finite_number(holder.get("time"))):
            return True     # garbled: a lease could never expire it
        if holder.get("host") == self.host \
                and not _pid_alive(holder.get("pid")):
            return True     # local dead pid: the kill -9 aftermath
        return float(self.clock()) - float(holder["time"]) > self.lease

    # -- ledger state --------------------------------------------------
    def _load(self):
        """The round's ledger; a missing file is an empty ledger.

        Writes replace the file atomically, so a file that is not a
        ledger (not UTF-8 JSON, not an object, or a ``shards`` that is
        not an object of entries with a string ``digest`` and a known
        ``status``, and whose claim fields, where present, are a string
        ``host``, a ``pid`` in ``1..2**31-1`` and a finite
        ``claimed_at``) is a :class:`FarmError` naming it, never a
        ledger to rewrite from scratch.
        """
        try:
            with open(self.ledger_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return {"version": LEDGER_VERSION, "round": self.round_key,
                    "shards": {}}
        try:
            state = json.loads(raw.decode("utf-8"))
        except ValueError as error:     # UnicodeDecodeError included
            raise FarmError(f"corrupt ledger {self.ledger_path}: "
                            f"{error}") from None
        shards = state.get("shards") if isinstance(state, dict) else None
        if not isinstance(shards, dict):
            raise FarmError(f"corrupt ledger {self.ledger_path}: expected "
                            "an object whose 'shards' is an object")
        for sid, entry in shards.items():
            problem = _entry_problem(entry)
            if problem is not None:
                raise FarmError(f"corrupt ledger {self.ledger_path}: "
                                f"shard {sid!r} {problem}")
        return state

    def _save(self, state):
        atomic_write_json(self.ledger_path, state)

    def ensure(self, units):
        """Register this round's shards (idempotent, digest-validated).

        ``units`` is ``[{"shard_id", "digest"}]``.  Every participating
        host calls this with the plan *it* computed; the first writer
        creates the entries, later hosts validate against them.  A
        digest mismatch means a host's scheduler diverged — that host
        must not run anything, so it is an error, not a merge.
        """
        with self._locked():
            state = self._load()
            shards = state["shards"]
            changed = False
            for unit in units:
                sid, digest = unit["shard_id"], unit["digest"]
                existing = shards.get(sid)
                if existing is None:
                    shards[sid] = {"digest": digest, "status": "pending"}
                    changed = True
                elif existing["digest"] != digest:
                    raise FarmError(
                        f"shard {sid} of round {self.round_key} is "
                        f"registered with digest "
                        f"{existing['digest'][:12]}… but this host "
                        f"computed {digest[:12]}… — its campaign state "
                        f"has diverged from the federation")
            if changed:
                self._save(state)

    def _stale(self, entry):
        if entry.get("host") == self.host \
                and not _pid_alive(entry.get("pid")):
            return True
        return float(self.clock()) - float(entry.get("claimed_at", 0)) \
            > self.lease

    def claim(self):
        """CAS-claim the first available shard; returns its id or None.

        Available: ``pending``, or ``claimed`` with a stale owner (work
        stealing).  The scan runs in shard-id order, so claim behavior
        is deterministic given the ledger state; which host runs a
        shard never changes what the shard computes.
        """
        with self._locked():
            state = self._load()
            for sid in sorted(state["shards"]):
                entry = state["shards"][sid]
                if entry["status"] == "done":
                    continue
                if entry["status"] == "claimed" and not self._stale(entry):
                    continue
                entry.update(status="claimed", host=self.host,
                             pid=self.pid,
                             claimed_at=float(self.clock()))
                self._save(state)
                return sid
        return None

    def mark_done(self, sid):
        """Flip one claimed shard to ``done`` (its result file exists)."""
        if not os.path.exists(self.result_path(sid)):
            raise FarmError(
                f"refusing to mark {sid} done: no result file at "
                f"{self.result_path(sid)}")
        with self._locked():
            state = self._load()
            entry = state["shards"].get(sid)
            if entry is None:
                raise FarmError(f"unknown shard {sid} in round "
                                f"{self.round_key}")
            if entry["status"] != "done":
                entry["status"] = "done"
                self._save(state)

    # -- results -------------------------------------------------------
    def result_path(self, sid):
        return os.path.join(self.results_dir, f"{sid}.npz")

    def write_result(self, sid, outcome):
        atomic_write_bytes(self.result_path(sid), encode_outcome(outcome))

    def load_result(self, sid):
        return decode_outcome(self.result_path(sid))

    def counts(self):
        """``{"pending": n, "claimed": n, "done": n}`` right now."""
        state = self._load()
        counts = {"pending": 0, "claimed": 0, "done": 0}
        for entry in state["shards"].values():
            counts[entry["status"]] += 1
        return counts

    def all_done(self):
        state = self._load()
        shards = state["shards"]
        return bool(shards) and all(e["status"] == "done"
                                    for e in shards.values())

    def load_results(self):
        """All done shards' outcomes, ``{shard_id: outcome}``."""
        state = self._load()
        return {sid: self.load_result(sid)
                for sid, entry in state["shards"].items()
                if entry["status"] == "done"}


class LedgerShardRunner:
    """A :meth:`Campaign.run` ``shard_runner`` backed by a shared ledger.

    Construct one per host with a common ``campaign_dir``, hand it to
    ``FuzzSession.run(rounds, shard_runner=runner)`` on every host, and
    the hosts split each wave's shards between them: claim → execute →
    publish → repeat, then wait for (or steal) the rest.  Every host
    returns the complete outcome set — decoded from the shared result
    files, its own shards included — so every host's merge, absorb, and
    checkpoint are bit-identical, and a host that joined late or
    restarted simply finds finished rounds fully ``done`` and replays
    the merge without recomputing anything.
    """

    def __init__(self, campaign_dir, host=None, pid=None,
                 lease=DEFAULT_LEASE, poll=0.005, clock=time.time):
        self.campaign_dir = os.path.abspath(campaign_dir)
        self.host = host
        self.pid = pid
        self.lease = float(lease)
        self.poll = float(poll)
        self.clock = clock
        os.makedirs(self.campaign_dir, exist_ok=True)

    def ledger_for(self, seed):
        return ShardLedger(self.campaign_dir, round_key(seed),
                           host=self.host, pid=self.pid, lease=self.lease,
                           clock=self.clock)

    def __call__(self, campaign, tracker_states, shards):
        if not shards:
            return []
        ledger = self.ledger_for(campaign.seed)
        by_id = {shard_id(s.shard_index): s for s in shards}
        ledger.ensure([{"shard_id": sid, "digest": shard_digest(s)}
                       for sid, s in sorted(by_id.items())])
        while True:
            sid = ledger.claim()
            if sid is not None:
                # The canonical mid-wave crash address: this host owns a
                # claimed, unfinished shard.  A kill here is exactly the
                # state work stealing exists for.
                fault_point("dist.shard.claim")
                outcome = campaign.execute_shard(tracker_states,
                                                 by_id[sid])
                ledger.write_result(sid, outcome)
                fault_point("dist.shard.done")
                ledger.mark_done(sid)
                continue
            if ledger.all_done():
                break
            # Wave barrier: another host owns the remaining shards.  The
            # poll is tight on purpose — its tail latency is pure
            # wall-clock cost at every wave boundary, while a wakeup is
            # just two ledger reads (~0.1 ms).
            time.sleep(self.poll)
        outcomes = ledger.load_results()
        missing = sorted(set(by_id) - set(outcomes))
        if missing:
            raise FarmError(
                f"round {ledger.round_key} finished without results for "
                f"{missing} — ledger and shard plan disagree")
        return [outcomes[sid] for sid in sorted(outcomes)]


class FederatedSession:
    """One host's handle on a ledger-federated fuzz campaign.

    Wraps a regular :class:`~repro.corpus.session.FuzzSession` (each
    host builds its own, over its own store replica, with the *same*
    deterministic identity) and routes every wave's shards through a
    :class:`LedgerShardRunner` over the shared ``campaign_dir``.  Any
    number of hosts may run concurrently, join late, crash, or restart:
    each one ends at the same bit-identical store, because each one
    merges the complete shard-result set of every round it completes.
    """

    def __init__(self, session, campaign_dir, host=None,
                 lease=DEFAULT_LEASE, poll=0.005, clock=time.time):
        self.session = session
        self.runner = LedgerShardRunner(campaign_dir, host=host,
                                        lease=lease, poll=poll,
                                        clock=clock)

    @property
    def store(self):
        return self.session.store

    @property
    def completed_rounds(self):
        return self.session.completed_rounds

    def run(self, rounds):
        return self.session.run(rounds, shard_runner=self.runner)

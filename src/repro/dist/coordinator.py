"""Federation surface: peer lists, gossip, and cross-host shard fan-out.

Deliberately coordinator-less.  There is no leader and no membership
protocol — just a ``peers.json`` next to each farm root
(:class:`PeerList`, edited by ``repro join``) and a ``peers`` RPC verb
each daemon answers with its own gossip (queue depth, per-store entry
counts and coverage generations).  Everything that must be *correct* —
who runs which shard, what the merged corpus contains — rests on the
shard ledger and the sync semilattice, both of which tolerate absent,
dead, and duplicate peers by construction; the peer list only has to be
roughly right for the federation to be *fast*.

Two fan-out strategies live here:

* :class:`FederatedSession` — the shared-filesystem path: every host
  runs the same ``FuzzSession`` against its own store replica and a
  common campaign directory; waves split via
  :class:`~repro.dist.shards.LedgerShardRunner`, and since every host
  merges every shard result, the stores never need explicit syncing to
  stay identical.
* :class:`PeerShardRunner` — the RPC path (``generate --peers``): one
  driver fans shards to daemons over the ``run-shard`` verb and falls
  back to local execution for any shard a peer cannot take.  Peers
  accelerate a campaign; they can never change or fail it.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

from repro.core.campaign import CampaignShard
from repro.dist.shards import (DEFAULT_LEASE, LedgerShardRunner,
                               decode_outcome)
from repro.dist.sync import (BAD_PAYLOAD, decode_array, encode_array,
                             encode_coverage)
from repro.errors import ConfigError, FarmError, ReproError
from repro.utils.atomicio import atomic_write_json

__all__ = ["PeerList", "parse_peer", "FederatedSession",
           "PeerShardRunner", "encode_shard", "decode_shard",
           "PEERS_NAME", "MAX_GOSSIP_PEERS"]

PEERS_NAME = "peers.json"

#: Cap on peers learned from gossip (peers-of-peers).  Explicitly
#: joined peers are never counted against, or evicted by, this cap.
MAX_GOSSIP_PEERS = 16

#: Largest SeedSequence entropy pool a shard record may ask for; the
#: pool is allocated up front, and numpy's default is 4 words.
MAX_POOL_SIZE = 1024


def parse_peer(text):
    """``"HOST:PORT"`` → ``(host, port)`` with a one-line error."""
    host, sep, port = str(text).strip().rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"bad peer {text!r}; want HOST:PORT (e.g. 127.0.0.1:7001)")
    try:
        port = int(port)
    except ValueError:
        raise ConfigError(f"bad peer port in {text!r}") from None
    if not 0 < port < 65536:
        raise ConfigError(f"peer port out of range in {text!r}")
    return host, port


class PeerList:
    """The peer set persisted per farm root (``peers.json``).

    Re-read from disk on every access — the daemon and any number of
    ``repro join`` / ``repro peers`` invocations share the file, and an
    atomic-replace write per mutation keeps it torn-free.  Order is
    insertion order; duplicates dedup by (host, port).

    Each record carries how the peer was learned — ``"join"`` (the
    operator said so) or ``"gossip"`` (a peer's ``peers`` RPC mentioned
    it; auto-discovery, capped at :data:`MAX_GOSSIP_PEERS`).  Files
    written before the distinction existed read back as ``"join"``.
    """

    def __init__(self, root):
        self.root = os.path.abspath(root)
        self.path = os.path.join(self.root, PEERS_NAME)

    def records(self):
        """``[{"host", "port", "via"}]`` in insertion order.

        A missing or torn file reads as no peers (the next write heals
        it); JSON of any other shape is a :class:`ConfigError` naming
        the file.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (FileNotFoundError, ValueError):
            return []
        try:
            return [{"host": str(p["host"]), "port": int(p["port"]),
                     "via": str(p.get("via", "join"))}
                    for p in data.get("peers", [])]
        except (AttributeError, KeyError, TypeError, ValueError):
            raise ConfigError(
                f"{self.path} is not a peer list; want "
                '{"peers": [{"host": ..., "port": ...}, ...]}') from None

    def peers(self):
        return [(p["host"], p["port"]) for p in self.records()]

    def _save(self, records):
        os.makedirs(self.root, exist_ok=True)
        atomic_write_json(self.path, {"peers": list(records)})

    def add(self, host, port, via="join"):
        """Add one peer; returns True if the list changed.

        An explicit join upgrades an existing gossip record in place
        (the operator's word outranks hearsay); gossip never downgrades
        a join, and gossip adds beyond :data:`MAX_GOSSIP_PEERS` are
        dropped so one chatty peer cannot grow the file without bound.
        """
        host, port = str(host), int(port)
        records = self.records()
        for record in records:
            if (record["host"], record["port"]) == (host, port):
                if via == "join" and record["via"] == "gossip":
                    record["via"] = "join"
                    self._save(records)
                return False
        if via == "gossip" and sum(r["via"] == "gossip"
                                   for r in records) >= MAX_GOSSIP_PEERS:
            return False
        records.append({"host": host, "port": port, "via": via})
        self._save(records)
        return True

    def remove(self, host, port):
        """Drop one peer; returns True if it was present."""
        host, port = str(host), int(port)
        records = self.records()
        kept = [r for r in records
                if (r["host"], r["port"]) != (host, port)]
        if len(kept) == len(records):
            return False
        self._save(kept)
        return True


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
        # The session's own store is the locality hint: claims prefer
        # shards whose seeds this replica already holds.
        self.runner = LedgerShardRunner(campaign_dir, host=host,
                                        lease=lease, poll=poll,
                                        clock=clock, have=session.store)

    @property
    def store(self):
        return self.session.store

    @property
    def completed_rounds(self):
        return self.session.completed_rounds

    def run(self, rounds):
        return self.session.run(rounds, shard_runner=self.runner)


# -- RPC shard fan-out --------------------------------------------------------
def encode_shard(shard):
    """One :class:`CampaignShard` as a JSON-safe dict.

    The seed stream travels as SeedSequence *identity* (entropy,
    spawn_key, pool_size) — pure data, reconstructable anywhere — which
    is the whole reason remote execution can be bit-identical.
    """
    seq = shard.seed_seq
    entropy = seq.entropy
    if not isinstance(entropy, int):
        entropy = [int(word) for word in entropy]
    return {
        "shard_index": int(shard.shard_index),
        "indices": [int(i) for i in shard.indices],
        "seeds": encode_array(shard.seeds),
        "entropy": entropy,
        "spawn_key": [int(k) for k in seq.spawn_key],
        "pool_size": int(seq.pool_size),
        "scales": (None if shard.scales is None
                   else encode_array(shard.scales)),
    }


def decode_shard(payload):
    """Inverse of :func:`encode_shard`.

    The record comes from outside the process (a ``run-shard``
    request), so one that does not describe a shard is a
    :class:`FarmError` before any compute runs.
    """
    try:
        entropy = payload["entropy"]
        if not isinstance(entropy, int):
            entropy = [int(word) for word in entropy]
        pool_size = int(payload["pool_size"])
        if pool_size > MAX_POOL_SIZE:
            raise ValueError(f"pool_size {pool_size} > {MAX_POOL_SIZE}")
        seq = np.random.SeedSequence(
            entropy=entropy,
            spawn_key=tuple(int(k) for k in payload["spawn_key"]),
            pool_size=pool_size)
        shard_index = int(payload["shard_index"])
        indices = np.asarray(payload["indices"], dtype=np.int64)
        seeds = decode_array(payload["seeds"])
        scales = payload.get("scales")
    except BAD_PAYLOAD as error:
        raise FarmError(f"bad shard record: {error!r}") from None
    if scales is not None:
        scales = decode_array(scales)
    n = seeds.shape[0] if seeds.ndim else -1
    if indices.shape != (n,) or (scales is not None
                                 and scales.shape != (n,)):
        raise FarmError("bad shard record: indices, seeds and scales "
                        "must have one entry per seed")
    return CampaignShard(shard_index=shard_index, indices=indices,
                         seeds=seeds, seed_seq=seq, scales=scales)


class PeerShardRunner:
    """Fan campaign shards across farm daemons over ``run-shard``.

    A :meth:`Campaign.run` ``shard_runner``: one worker thread per
    peer pulls shards from a shared queue and executes them remotely;
    the driver thread pulls from the same queue and executes locally.
    Work-conserving and failure-transparent — a peer that is down,
    drops the connection, refuses the shard (model fingerprint
    mismatch, unknown dataset) or answers with a garbled outcome fails
    with a :class:`~repro.errors.ReproError`, is retired for the run,
    and its shards execute locally instead.  Any other exception in a
    peer thread is a local bug and fails the run.  Placement never
    affects results: a shard's outcome is a pure function of the
    shard.

    ``dataset`` and ``constraint`` name what the *peer* should rebuild
    (peers resolve their own models from their zoo cache); the rule,
    task, dtype, and tracker states are read off the campaign at call
    time.  A model-fingerprint check on the peer side refuses mixed
    scales/architectures before any compute happens.

    ``local=False`` turns off the driver's own pulling — pure offload,
    for drivers that should stay responsive (or tests that must prove
    the remote path ran).  Shards of failed peers still fall back to
    local execution; correctness never depends on the flag.
    """

    def __init__(self, peers, dataset, constraint="default",
                 timeout=300.0, local=True):
        self.peers = list(peers)
        self.dataset = str(dataset)
        self.constraint = str(constraint)
        self.timeout = float(timeout)
        self.local = bool(local)
        #: (host, port) -> error string for peers retired this run.
        self.failures = {}
        #: shard_index -> "local" | "host:port" placement record.
        self.placements = {}

    def _run_remote(self, client, campaign, tracker_payloads, shard):
        from repro.corpus.store import corpus_fingerprint
        reply = client.run_shard({
            "dataset": self.dataset,
            "task": campaign.task,
            "constraint": self.constraint,
            "ascent": campaign.rule.identity(),
            "dtype": str(np.dtype(campaign.models[0].dtype)),
            "fingerprint": corpus_fingerprint(campaign.models, campaign.hp,
                                              campaign.task),
            "trackers": tracker_payloads,
            "shard": encode_shard(shard),
        })
        from repro.farm.wire import as_bytes
        outcome = decode_outcome(as_bytes(reply.get("outcome")))
        if outcome["shard_index"] != shard.shard_index:
            raise FarmError(
                f"peer answered shard {shard.shard_index} with the outcome "
                f"of shard {outcome['shard_index']}")
        return outcome

    def __call__(self, campaign, tracker_states, shards):
        from repro.farm.client import PeerClient
        pending = sorted(shards, key=lambda s: -s.shard_index)  # pop() asc
        fallback = []
        crashes = []
        results = {}
        lock = threading.Lock()
        tracker_payloads = [encode_coverage(s) for s in tracker_states]

        def take(queue):
            with lock:
                return queue.pop() if queue else None

        def peer_loop(host, port):
            client = PeerClient(host, port, timeout=self.timeout)
            while True:
                shard = take(pending)
                if shard is None:
                    return
                try:
                    outcome = self._run_remote(client, campaign,
                                               tracker_payloads, shard)
                except ReproError as error:
                    # A failed peer means "run it ourselves", never
                    # "fail the campaign"; the error is kept for
                    # reporting.
                    with lock:
                        fallback.append(shard)
                        self.failures[(host, port)] = str(error)
                    return
                except Exception as error:     # noqa: BLE001 — re-raised
                    # Anything else is a bug on this side of the wire:
                    # the driver re-raises it after the join.
                    with lock:
                        crashes.append(error)
                    return
                with lock:
                    results[shard.shard_index] = outcome
                    self.placements[shard.shard_index] = f"{host}:{port}"

        threads = [threading.Thread(target=peer_loop, args=peer,
                                    daemon=True)
                   for peer in self.peers]
        for thread in threads:
            thread.start()
        while self.local and not crashes:
            shard = take(pending)
            if shard is None:
                break
            results[shard.shard_index] = campaign.execute_shard(
                tracker_states, shard)
            self.placements[shard.shard_index] = "local"
        for thread in threads:
            thread.join()
        if crashes:
            raise crashes[0]
        # Only now are the queues final: a peer thread can only move
        # shards while alive.  Anything left — failed peers' shards in
        # fallback, or pending never pulled because every peer died
        # under ``local=False`` — runs here; correctness never depends
        # on placement.
        while fallback or pending:
            shard = fallback.pop() if fallback else pending.pop()
            results[shard.shard_index] = campaign.execute_shard(
                tracker_states, shard)
            self.placements[shard.shard_index] = "local"
        return [results[index] for index in sorted(results)]

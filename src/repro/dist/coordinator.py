"""Federation surface: peer lists, gossip, and ledger-federated sessions.

Deliberately coordinator-less.  There is no leader and no membership
protocol — just a ``peers.json`` next to each farm root
(:class:`PeerList`, edited by ``repro join``) and a ``peers`` RPC verb
each daemon answers with its own gossip (queue depth, per-store entry
counts and coverage generations).  Everything that must be *correct* —
who runs which shard, what the merged corpus contains — rests on the
shard ledger and the sync semilattice, both of which tolerate absent,
dead, and duplicate peers by construction; the peer list only has to be
roughly right for the federation to be *fast*.

A daemon listens on ``127.0.0.1`` only, so gossip and the ``store-*``
pulls reach daemons on the same machine.  Across machines the
federation is :class:`FederatedSession`: every host runs the same
``FuzzSession`` against its own store replica and a campaign directory
on a shared filesystem; waves split via
:class:`~repro.dist.shards.LedgerShardRunner`, and since every host
merges every shard result, the stores never need explicit syncing to
stay identical.
"""

from __future__ import annotations

import json
import os
import time

from repro.dist.shards import DEFAULT_LEASE, LedgerShardRunner
from repro.errors import ConfigError
from repro.utils.atomicio import atomic_write_json

__all__ = ["PeerList", "parse_peer", "FederatedSession",
           "PEERS_NAME", "MAX_GOSSIP_PEERS"]

PEERS_NAME = "peers.json"

#: Cap on peers learned from gossip (peers-of-peers).  Explicitly
#: joined peers are never counted against, or evicted by, this cap.
MAX_GOSSIP_PEERS = 16


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

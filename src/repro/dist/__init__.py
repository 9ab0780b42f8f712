"""Distributed campaign fabric: corpus sync and the shard ledger.

Two layers, each useful alone (docs/DISTRIBUTED.md is the manual):

* :mod:`repro.dist.sync` — corpus synchronisation between stores, over
  a shared filesystem or the farm's TCP verbs.  A pull-only
  semilattice join: idempotent, commutative, crash-safe.
* :mod:`repro.dist.shards` — the work-stealing shard ledger and
  ledger-federated fuzz sessions.  Hosts claim ``(campaign seed,
  shard)`` units by lock-protected CAS and publish results as atomic
  files; any host can run any shard and the merged campaign is
  bit-identical to a solo run.

A daemon listens on ``127.0.0.1``, so the TCP ``store-*`` pulls reach
daemons on the same machine; across machines the federation is the
ledger on a shared filesystem.

Imports are kept lazy toward :mod:`repro.farm` (the daemon imports this
package for its ``federate`` job kind, and the TCP pull imports the
farm client), so the two packages compose without an import cycle.
"""

from repro.dist.shards import (FederatedSession, LedgerShardRunner,
                               ShardLedger, decode_outcome, encode_outcome,
                               round_key, shard_digest, shard_id)
from repro.dist.sync import (DEFAULT_BATCH, LocalSource, RemoteSource,
                             decode_array, decode_coverage, encode_array,
                             encode_coverage, pull)

__all__ = [
    "FederatedSession", "LedgerShardRunner", "ShardLedger",
    "decode_outcome", "encode_outcome", "round_key", "shard_digest",
    "shard_id",
    "DEFAULT_BATCH", "LocalSource", "RemoteSource", "decode_array",
    "decode_coverage", "encode_array", "encode_coverage", "pull",
]

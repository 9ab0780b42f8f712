"""Corpus synchronisation between stores: a pull-only semilattice join.

One protocol, two transports.  A *source* exposes a crash-consistent
manifest (config + entry records + coverage states, optionally
delta-filtered by the hashes the caller already holds) and batched
input fetch — over either a shared filesystem (:class:`LocalSource`,
built on :meth:`CorpusStore.snapshot`) or the farm daemon's TCP
plumbing (:class:`RemoteSource`, the read-only ``store-*`` RPC verbs
from ``repro.farm.server``).  :func:`pull` drains a source into a
local store, and it is the only code that copies entries between
stores: ``repro corpus merge`` and the farm's ``compact-merge`` job
are pulls too.  Nothing writes into another host's store; a host that
wants a peer's work pulls it.

Transfers are batched: :data:`DEFAULT_BATCH` entries per round-trip
(the ``store-entries`` verb), so a sync costs O(entries/batch) wire
exchanges instead of O(entries), and the manifest's ``have`` filter
means only the delta ever crosses the wire.
Batching is a pure transport optimisation — the resulting store is
bit-identical to a per-entry (``batch=1``) sync, which the Hypothesis
property in tests/dist/test_sync.py pins under injected mid-batch
crashes.

The whole protocol is a semilattice join, which is what makes it safe
to run at any time, from any side, any number of times:

* **idempotent** — entries are content-addressed (SHA-256), so a
  re-transferred entry dedups to a no-op; coverage merges with
  :func:`repro.coverage.merge_state_dicts` (OR), so replaying a
  snapshot changes nothing.  A sync that lands no entry and changes
  no coverage skips the commit entirely — idle mirror syncs leave the
  checkpoint generation (and the ``.npz`` snapshots) untouched.
* **commutative** — A⊔B = B⊔A for both entries (set union, insertion
  order only affects iteration order, never content addressing) and
  coverage masks.
* **crash-safe** — entries land via the store's atomic ``.npy`` +
  append-only meta discipline *before* the coverage commit flips the
  checkpoint; a sync killed anywhere leaves a valid store that the next
  sync converges from.  The interesting crash addresses are armed as
  ``REPRO_FAULTS`` points: ``dist.pull.batch`` (per wire round-trip),
  ``dist.pull.entry`` (per entry absorbed) and ``dist.sync.mid``
  (after entries, before the coverage commit).
"""

from __future__ import annotations

import io
import zipfile

import numpy as np

from repro.corpus.store import (CorpusStore, coverage_from_bytes,
                                coverage_states_equal, coverage_to_bytes,
                                merge_coverage_states)
from repro.errors import FarmError
from repro.farm.wire import Blob, as_bytes
from repro.utils.faults import fault_point

__all__ = ["LocalSource", "RemoteSource", "pull", "encode_array",
           "decode_array", "encode_coverage", "decode_coverage",
           "DEFAULT_BATCH"]

#: Entries per sync round-trip.  Large enough that round-trip latency
#: amortises away, small enough that one batch's arrays stay a modest
#: message even at paper scale.
DEFAULT_BATCH = 64


# -- wire encoding ----------------------------------------------------------
# Arrays travel as their ``.npy`` serialization and coverage states as
# the exact ``.npz`` bytes committed snapshots use on disk — no second
# format to keep compatible, and both are self-describing (shape +
# dtype ride along).  Encoders return wire :class:`Blob`\ s, which the
# farm protocol ships as binary frames (``repro.farm.wire``).  Decoders
# read bytes from another host, so a payload that is not what it claims
# to be is a FarmError, never a traceback in a server thread.

#: What ``np.load``, the ``.npz`` readers and the record decoders raise
#: on bytes or JSON that are not a well-formed payload.
BAD_PAYLOAD = (ValueError, TypeError, KeyError, AttributeError,
               OverflowError, EOFError, zipfile.BadZipFile)


def encode_array(x):
    buffer = io.BytesIO()
    np.save(buffer, np.asarray(x))
    return Blob(buffer.getvalue())


def decode_array(payload):
    try:
        x = np.load(io.BytesIO(as_bytes(payload)), allow_pickle=False)
    except BAD_PAYLOAD as error:
        raise FarmError(f"bad array payload: {error}") from None
    if not isinstance(x, np.ndarray):
        raise FarmError("bad array payload: an .npz archive, not an "
                        ".npy array")
    if x.dtype.kind not in "biuf":
        raise FarmError(f"bad array payload: {x.dtype} is not a numeric "
                        "dtype")
    return x


def encode_coverage(state):
    return Blob(coverage_to_bytes(state))


def decode_coverage(payload):
    try:
        return coverage_from_bytes(as_bytes(payload))
    except BAD_PAYLOAD as error:
        raise FarmError(f"bad coverage payload: {error}") from None


# -- sources ----------------------------------------------------------------
class LocalSource:
    """Shared-filesystem source: another store directory, possibly live.

    Reads go through :meth:`CorpusStore.snapshot`, so pulling from a
    store that another process is actively fuzzing yields a
    crash-consistent prefix — never a torn checkpoint.
    """

    def __init__(self, path):
        self.store = path if isinstance(path, CorpusStore) \
            else CorpusStore(path, create=False)

    def describe(self):
        return self.store.path

    def manifest(self, have=None):
        snap = self.store.snapshot(exclude_hashes=have)
        return {"config": snap["config"], "entries": snap["entries"],
                "coverage": snap["coverage"]}

    def fetch(self, entry_hash):
        return self.store.load_input(entry_hash)

    def fetch_many(self, hashes):
        return [self.store.load_input(h) for h in hashes]


class RemoteSource:
    """TCP source: a named store behind a farm daemon's ``store-*`` verbs."""

    def __init__(self, host, port, store, timeout=10.0):
        from repro.farm.client import PeerClient
        self.client = PeerClient(host, port, timeout=timeout)
        self.store = str(store)

    def describe(self):
        return f"{self.client.host}:{self.client.port}/{self.store}"

    def manifest(self, have=None):
        reply = self.client.store_manifest(self.store, have=have)
        return {"config": reply.get("config"),
                "entries": reply.get("entries", []),
                "coverage": {name: decode_coverage(payload)
                             for name, payload
                             in reply.get("coverage", {}).items()}}

    def fetch(self, entry_hash):
        return decode_array(
            self.client.store_entry(self.store, entry_hash)["data"])

    def fetch_many(self, hashes):
        reply = self.client.store_entries(self.store, hashes)
        return [decode_array(record["data"])
                for record in reply["entries"]]


def _as_source(source):
    if isinstance(source, (LocalSource, RemoteSource)):
        return source
    return LocalSource(source)


# -- the protocol -----------------------------------------------------------
def pull(dest, source, batch=DEFAULT_BATCH):
    """Pull everything ``source`` has that ``dest`` lacks; returns added.

    Order is the crash-safety contract: bind the config, OR-merge the
    coverage in memory, land the entries (content-addressed,
    idempotent, ``batch`` per round-trip, each re-hashed before it is
    written), then commit once.  The commit carries the merged coverage
    only when the join changed it, so the generation moves only then,
    and it is skipped when nothing landed either — a no-op mirror sync
    leaves the checkpoint alone.  A crash mid-pull leaves entries
    without their coverage — harmless, the store's invariants hold —
    and re-pulling converges because the already-present prefix dedups
    away (it is excluded server-side by the manifest's ``have``
    filter, and re-checked here).
    """
    if not isinstance(dest, CorpusStore):
        dest = CorpusStore(dest)
    source = _as_source(source)
    batch = max(1, int(batch))
    have = {entry["hash"] for entry in dest.entries()}
    manifest = source.manifest(have=have)
    if manifest.get("config") is not None:
        # Adopt when fresh, validate otherwise — syncing stores built
        # against different model trios is a ConfigError, not a merge.
        dest.bind_config(manifest["config"])
    existing = dest.coverage_states()
    merged = merge_coverage_states(existing, manifest.get("coverage") or {})
    pending = [entry for entry in manifest.get("entries", [])
               if entry["hash"] not in dest]
    added = 0
    for start in range(0, len(pending), batch):
        chunk = pending[start:start + batch]
        # One wire round-trip per batch.  Countdown N dies with N-1
        # batches durably absorbed and no commit — the partial-sync
        # state the convergence property replays.
        fault_point("dist.pull.batch")
        arrays = source.fetch_many([entry["hash"] for entry in chunk])
        for entry, x in zip(chunk, arrays):
            # Countdown N dies with N-1 entries absorbed — same replay
            # story at entry granularity.
            fault_point("dist.pull.entry")
            added += int(dest.add_record(entry, x))
    # Entries are durable; one commit publishes them (the manifest's
    # entry count) together with any coverage the join added.
    fault_point("dist.sync.mid")
    changed = not coverage_states_equal(existing, merged)
    if added or changed:
        dest.commit(coverage_states=merged if changed else None,
                    fuzz_state=dest.fuzz_state())
    return added


"""On-disk, content-addressed corpus store.

A :class:`CorpusStore` is the persistence layer that turns one-shot
generation runs into an ever-growing campaign: every seed and every
difference-inducing test lives in the store, together with the merged
per-model coverage reached so far, and any later run (``repro fuzz``,
``repro generate --resume``) picks up exactly where the corpus left off.

Layout (everything under one directory)::

    corpus/
      MANIFEST.json            # store version + config fingerprint + counters
      checkpoint.json          # commit point: coverage generation + fuzz state
      meta.jsonl               # one JSON record per entry, append-only
      inputs/<hash>.npy        # content-addressed input arrays
      coverage/<model>.g<N>.npz  # versioned merged coverage snapshots

Invariants:

* **Content addressing** — an entry's identity is the SHA-256 of its
  input array (shape + dtype + bytes).  Adding an input twice is a
  no-op, which makes every absorb idempotent: replaying a partially
  persisted wave converges to the same store.  Every entry lands
  through :meth:`CorpusStore.add_entry`; :meth:`~CorpusStore.add_test`
  builds a generated test's record, and
  :meth:`~CorpusStore.add_record` re-hashes an entry copied from
  another store before writing it.  :func:`repro.dist.sync.pull` is
  the one copier (``repro corpus merge`` and the farm's
  ``compact-merge`` job call it).
* **Atomic writes** — every file lands via write-to-temp +
  ``os.replace``; ``meta.jsonl`` is append-only with a flush+fsync per
  record.  A truncated trailing line (a crash mid-append) is ignored on
  load, and the next append starts on a fresh line so it is not lost
  with the torn one.
* **Lazy handle** — opening a store reads only ``MANIFEST.json``; the
  entry index (``meta.jsonl``) and the committed checkpoint load on
  first use, so a handle that only serves inputs parses neither.
* **Versioned commit point** — coverage snapshots are written under a
  fresh generation number *first*, then ``checkpoint.json`` flips to
  reference them in one atomic replace.  A crash between the two leaves
  the previous checkpoint (and its snapshot files) fully intact, which
  is what makes :class:`~repro.corpus.session.FuzzSession` resume
  bit-identically.
* **Merge laws** — persisted coverage merges with
  :func:`repro.coverage.merge_state_dicts` (OR: commutative,
  associative, idempotent), the same laws campaign shard-merging rests
  on, so stores built shard-wise or machine-wise fold together exactly.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import re
import zipfile

import numpy as np

from repro.analysis.minimize import minimize_suite
from repro.coverage import merge_state_dicts
from repro.errors import ConfigError
from repro.utils.atomicio import atomic_write_bytes, atomic_write_json
from repro.utils.faults import fault_point

__all__ = ["CorpusStore", "corpus_fingerprint", "input_hash",
           "coverage_to_bytes", "coverage_from_bytes",
           "coverage_states_equal", "merge_coverage_states"]

STORE_VERSION = 1

#: How many times :meth:`CorpusStore.snapshot` restarts when a racing
#: commit garbage-collects a coverage generation out from under it.
_SNAPSHOT_RETRIES = 5

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]")

#: One decode per ``meta.jsonl`` line: ``json.loads`` minus the
#: whitespace scans a stripped line does not need.
_decode_record = json.JSONDecoder().raw_decode


def corpus_fingerprint(models, hyperparams, task):
    """The config dict a corpus store is pinned to (``bind_config``).

    One definition shared by :class:`~repro.corpus.session.FuzzSession`
    and the CLI so ``generate --corpus`` and ``fuzz`` over the same
    directory can never drift apart on fingerprint shape.  Neuron
    counts participate: same-named models at different scales are
    different architectures, and their corpora must not mix.
    """
    return {"models": [m.name for m in models],
            "neurons": [int(m.total_neurons) for m in models],
            "threshold": float(hyperparams.threshold),
            "scaled": True,
            "task": task}


def input_hash(x):
    """Content address of one input array: SHA-256 over shape+dtype+bytes.

    Inputs are canonicalized to contiguous ``float64`` (the dtype every
    engine works in) so the hash is stable across the list/array/dtype
    forms a caller might hold.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(repr((x.shape, str(x.dtype))).encode("utf-8"))
    digest.update(x.tobytes())
    return digest.hexdigest()


def coverage_to_bytes(state):
    """Serialize one tracker ``state_dict`` to portable ``.npz`` bytes.

    The exact byte format committed snapshots use on disk, exposed so
    the distribution layer (``repro.dist``) can ship coverage over the
    wire without inventing a second encoding.  Boolean masks go in as
    arrays; the scalar config rides along as a JSON string in a 0-d
    unicode array, so nothing needs pickling.
    """
    config = json.dumps({
        "network": state["network"],
        "total_neurons": int(state["total_neurons"]),
        "threshold": float(state["threshold"]),
        "scaled": bool(state["scaled"]),
    })
    buffer = io.BytesIO()
    np.savez(buffer,
             config=np.array(config),
             tracked=np.asarray(state["tracked"], dtype=bool),
             covered=np.asarray(state["covered"], dtype=bool))
    return buffer.getvalue()


def _coverage_from_npz(path):
    with np.load(path, allow_pickle=False) as data:
        config = json.loads(str(data["config"][()]))
        state = dict(config)
        state["tracked"] = np.asarray(data["tracked"], dtype=bool)
        state["covered"] = np.asarray(data["covered"], dtype=bool)
    return state


def coverage_from_bytes(payload):
    """Inverse of :func:`coverage_to_bytes`."""
    return _coverage_from_npz(io.BytesIO(payload))


def coverage_states_equal(a, b):
    """True when two ``{model: state_dict}`` maps cover identically.

    The no-op detector behind sync's skip-the-commit path: an OR-merge
    whose result equals the already-committed states would rewrite
    every snapshot and bump the checkpoint generation for nothing, so
    callers compare first.  Masks are compared bit-for-bit; the scalar
    config fields ride along with the masks and cannot differ when the
    masks match a committed snapshot of the same fingerprint-bound
    store.
    """
    if set(a) != set(b):
        return False
    for name, state in a.items():
        other = b[name]
        if not np.array_equal(np.asarray(state["covered"], dtype=bool),
                              np.asarray(other["covered"], dtype=bool)):
            return False
        if not np.array_equal(np.asarray(state["tracked"], dtype=bool),
                              np.asarray(other["tracked"], dtype=bool)):
            return False
    return True


def merge_coverage_states(base, states):
    """``base`` ⊕ ``states`` for two ``{model: state_dict}`` maps.

    Models only one side holds pass through unchanged; the rest
    OR-merge with :func:`repro.coverage.merge_state_dicts`.
    """
    merged = dict(base)
    for name, state in states.items():
        merged[name] = (merge_state_dicts(merged[name], state)
                        if name in merged else state)
    return merged


def _read_json_object(path, default):
    """The JSON object in ``path``, or ``default`` when there is no file.

    A file that is not one JSON object is a :class:`ConfigError` naming
    it, so a garbled store answers a read verb with a typed error.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return default
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and integers past
        # Python's digit limit; RecursionError, nesting too deep.
        raise ConfigError(f"corrupt store file {path}: {error}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"corrupt store file {path}: expected a JSON "
                          f"object, got {type(data).__name__}")
    return data


class CorpusStore:
    """Persistent content-addressed corpus + merged coverage.

    Single-writer: one process (the fuzz session or CLI command) owns
    the store at a time.  Readers of a quiescent store are always safe.
    """

    def __init__(self, path, create=True):
        self.path = os.path.abspath(path)
        if not create and not os.path.isdir(self.path):
            # Read-only callers (corpus info, merge sources, distill)
            # must not fabricate an empty store at a typo'd path and
            # then report success over it.
            raise ConfigError(f"no corpus store at {path}")
        if os.path.exists(self.path) and not os.path.isdir(self.path):
            raise ConfigError(
                f"corpus path {path} exists and is not a directory")
        self.inputs_dir = os.path.join(self.path, "inputs")
        self.coverage_dir = os.path.join(self.path, "coverage")
        self.meta_path = os.path.join(self.path, "meta.jsonl")
        self.manifest_path = os.path.join(self.path, "MANIFEST.json")
        self.checkpoint_path = os.path.join(self.path, "checkpoint.json")
        os.makedirs(self.inputs_dir, exist_ok=True)
        os.makedirs(self.coverage_dir, exist_ok=True)
        # Version-check the manifest at open, before anything parses
        # meta/checkpoint: a future-format store must fail with this
        # clean ConfigError, not whatever the version-1 parsers hit first.
        manifest = self._load_manifest()
        if manifest.get("version", STORE_VERSION) != STORE_VERSION:
            raise ConfigError(
                f"corpus store at {self.path} has version "
                f"{manifest.get('version')!r}; this build reads "
                f"version {STORE_VERSION}")
        self._config = manifest.get("config")

    # -- loading ------------------------------------------------------------
    @functools.cached_property
    def _entries(self):
        """``{hash: record}`` in insertion order, read on first use."""
        return self._read_meta_records()

    @functools.cached_property
    def _checkpoint(self):
        """The committed checkpoint, read on first use."""
        return self._load_checkpoint()

    def _read_meta_records(self):
        """Parse ``meta.jsonl`` from disk into ``{hash: record}``.

        The file content is captured in one read, so the result is a
        point-in-time prefix of the append-only log even while another
        process (or thread) is appending to it.  A line that is not
        complete JSON (a crash or an in-flight append) is ignored — the
        entry's ``.npy`` may exist but unreferenced files are harmless
        and re-adding is idempotent.  A line that decodes to anything
        but an entry record is a :class:`ConfigError` naming the file
        and line: no torn append produces one.
        """
        records = {}
        try:
            with open(self.meta_path, "r", encoding="utf-8") as handle:
                data = handle.read()
        except FileNotFoundError:
            return records
        except UnicodeDecodeError as error:
            raise ConfigError(f"corrupt store file {self.meta_path}: "
                              f"{error}") from None
        for number, line in enumerate(data.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _decode_record(line)
            except json.JSONDecodeError:
                continue
            except (ValueError, RecursionError) as error:
                raise ConfigError(f"corrupt store file {self.meta_path} "
                                  f"line {number}: {error}") from None
            if end != len(line):
                continue            # trailing bytes: not one JSON value
            if not (isinstance(record, dict)
                    and isinstance(record.get("hash"), str)
                    and isinstance(record.get("kind"), str)):
                raise ConfigError(
                    f"corrupt store file {self.meta_path} line {number}: "
                    f"not an entry record with a hash and a kind")
            records[record["hash"]] = record
        return records

    def _load_checkpoint(self):
        return _read_json_object(self.checkpoint_path, {
            "version": STORE_VERSION, "coverage_gen": 0, "coverage": {},
            "fuzz": None})

    def _load_manifest(self):
        return _read_json_object(self.manifest_path, {
            "version": STORE_VERSION, "config": None})

    # -- config fingerprint -------------------------------------------------
    def bind_config(self, config):
        """Pin (or validate) the store's config fingerprint.

        ``config`` is a JSON-safe dict naming what the corpus was built
        against (model names, coverage threshold/scaling, task).  The
        first binder writes it; later binders must match — feeding a
        corpus built for one model trio into another is a
        :class:`ConfigError`, not silently wrong coverage.
        """
        config = json.loads(json.dumps(config))  # normalize to JSON types
        if self._config is None:
            self._config = config
            self._write_manifest()
        elif self._config != config:
            raise ConfigError(
                f"corpus at {self.path} was built with config "
                f"{self._config!r}; refusing to reuse it with {config!r}")
        return self._config

    @property
    def config(self):
        return self._config

    # -- entries ------------------------------------------------------------
    def __len__(self):
        return len(self._entries)

    def __contains__(self, entry_hash):
        return entry_hash in self._entries

    def entries(self, kind=None):
        """All entries in insertion order, optionally filtered by kind."""
        if kind is None:
            return list(self._entries.values())
        return [e for e in self._entries.values() if e["kind"] == kind]

    def get(self, entry_hash):
        return self._entries[entry_hash]

    def input_path(self, entry_hash):
        return os.path.join(self.inputs_dir, f"{entry_hash}.npy")

    def load_input(self, entry_hash):
        """One stored input; a file that is not a numeric ``.npy`` array
        is a :class:`ConfigError` naming it."""
        path = self.input_path(entry_hash)
        try:
            x = np.load(path, allow_pickle=False)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as error:
            raise ConfigError(f"unreadable corpus input {path}: "
                              f"{error}") from None
        if not isinstance(x, np.ndarray):
            x.close()
            raise ConfigError(f"corpus input {path} is an .npz archive, "
                              "not an .npy array")
        if x.dtype.kind not in "biuf":
            raise ConfigError(f"corpus input {path} holds a {x.dtype} "
                              "array, not a numeric one")
        return x

    def load_inputs(self, hashes):
        """Stack the inputs for ``hashes`` into one batch array."""
        return np.stack([self.load_input(h) for h in hashes])

    def add_entry(self, x, kind, **meta):
        """Persist one input; returns ``(hash, added)``.

        Idempotent: an input already in the store (by content hash) is
        not re-written and its metadata is not duplicated, so replaying
        a partially persisted wave converges.  The ``.npy`` lands
        atomically *before* the ``meta.jsonl`` record references it.
        """
        # Countdown N dies on the Nth NEW entry of that kind — with the
        # first N-1 already on disk and unreferenced by any checkpoint,
        # the exact mid-wave state the resume contract must absorb.
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        entry_hash = input_hash(x)
        if entry_hash in self._entries:
            return entry_hash, False
        fault_point(f"corpus.add-{kind}")
        buffer = io.BytesIO()
        np.save(buffer, x)
        atomic_write_bytes(self.input_path(entry_hash), buffer.getvalue())
        record = {"hash": entry_hash, "kind": str(kind)}
        record.update(json.loads(json.dumps(meta)))
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with open(self.meta_path, "a+b") as handle:
            # A crash mid-append leaves the log without its final
            # newline: start on a fresh line, or the next load skips
            # this record along with the torn one.
            if handle.tell():
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = b"\n" + line
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        self._entries[entry_hash] = record
        return entry_hash, True

    def add_test(self, test, origin, **meta):
        """Persist one generated test; returns ``(hash, added)``.

        The one writer of a test entry's record: the ``origin`` it was
        ascended from, its ``iterations``, its per-model
        ``predictions`` and its ``seed_class``, plus ``meta`` (a fuzz
        wave adds its ``round``).
        """
        return self.add_entry(
            test.x, "test", origin=origin, **meta,
            iterations=int(test.iterations),
            predictions=np.asarray(test.predictions).tolist(),
            seed_class=test.seed_class)

    def add_record(self, record, x):
        """Land an entry copied from another store; returns ``added``.

        ``record`` is the entry's record as its source store wrote it
        and ``x`` its input.  The input is re-hashed *before* anything
        is written, so a corrupt source file or wire payload is refused
        instead of landing under a hash its bytes do not have.
        """
        if not isinstance(record, dict) or "hash" not in record \
                or "kind" not in record:
            raise ConfigError("an entry record needs a hash and a kind")
        claimed, got = str(record["hash"]), input_hash(x)
        if got != claimed:
            raise ConfigError(
                f"entry {claimed[:12]}… hashed to {got[:12]}… — corrupt "
                f"source or wire payload")
        meta = {k: v for k, v in record.items() if k not in ("hash", "kind")}
        return self.add_entry(x, record["kind"], **meta)[1]

    def absorb(self, seeds, result, models, trackers):
        """Persist one generation pass in one commit; returns new tests.

        Seeds land with their batch index as ``origin``, tests with
        their seed's hash, and the trackers' coverage OR-merges into
        the committed snapshots.  The merge must be an OR: trackers
        that started empty (``generate`` without ``--resume``, a farm
        ``generate`` job) committed raw would shrink the corpus's
        accumulated coverage.
        """
        seed_hashes = [self.add_entry(x, "seed", origin=int(i))[0]
                       for i, x in enumerate(seeds)]
        added = sum(int(self.add_test(test, seed_hashes[test.seed_index])[1])
                    for test in result.tests)
        self.commit(coverage_states=self.merge_coverage(
            {m.name: t.state_dict() for m, t in zip(models, trackers)}),
            fuzz_state=self.fuzz_state())
        return added

    # -- coverage + checkpoint commits --------------------------------------
    def coverage_states(self):
        """The committed per-model coverage snapshots, ``{name: state}``."""
        states = {}
        for name, rel_path in self._checkpoint.get("coverage", {}).items():
            states[name] = _coverage_from_npz(os.path.join(self.path,
                                                           rel_path))
        return states

    def fuzz_state(self):
        """The committed fuzz-session state (or ``None``)."""
        return self._checkpoint.get("fuzz")

    def commit(self, coverage_states=None, fuzz_state=None):
        """Atomically commit coverage snapshots + session state.

        Order is the crash-safety contract: (1) write every snapshot
        under a fresh generation number, (2) atomically replace
        ``checkpoint.json`` to reference them, (3) garbage-collect
        snapshots of other generations.  A crash anywhere leaves the
        store at exactly the previous commit.

        ``coverage_states`` maps model name to a tracker ``state_dict``;
        when ``None`` the previously committed snapshots are kept.
        """
        gen = int(self._checkpoint.get("coverage_gen", 0)) + 1
        if coverage_states is None:
            coverage_refs = dict(self._checkpoint.get("coverage", {}))
            gen = int(self._checkpoint.get("coverage_gen", 0))
        else:
            coverage_refs = {}
            for name, state in coverage_states.items():
                safe = _SAFE_NAME.sub("_", name)
                rel_path = os.path.join("coverage", f"{safe}.g{gen}.npz")
                atomic_write_bytes(os.path.join(self.path, rel_path),
                                   coverage_to_bytes(state))
                coverage_refs[name] = rel_path
        checkpoint = {"version": STORE_VERSION, "coverage_gen": gen,
                      "coverage": coverage_refs, "fuzz": fuzz_state}
        # The narrowest crash window the commit protocol defends: new
        # snapshots on disk, checkpoint not yet flipped to them.
        fault_point("corpus.commit.mid")
        atomic_write_json(self.checkpoint_path, checkpoint)
        self._checkpoint = checkpoint
        self._gc_coverage()
        self._write_manifest()

    def _gc_coverage(self):
        """Remove snapshots the committed checkpoint no longer references."""
        keep = {os.path.basename(p)
                for p in self._checkpoint.get("coverage", {}).values()}
        for name in os.listdir(self.coverage_dir):
            if name.endswith(".npz") and name not in keep:
                os.unlink(os.path.join(self.coverage_dir, name))

    def merge_coverage(self, states):
        """Committed snapshots ⊕ ``states`` (no commit; caller commits).

        Models without a committed snapshot pass through unchanged.
        """
        return merge_coverage_states(self.coverage_states(), states)

    def _write_manifest(self):
        kinds = {}
        for entry in self._entries.values():
            kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + 1
        atomic_write_json(self.manifest_path, {
            "version": STORE_VERSION,
            "config": self._config,
            "entries": len(self._entries),
            "by_kind": kinds,
            "coverage_gen": self._checkpoint.get("coverage_gen", 0),
        })

    # -- consistent reads ---------------------------------------------------
    def snapshot(self, exclude_hashes=None):
        """Crash-consistent point-in-time view of this store's disk state.

        ``exclude_hashes`` filters the returned entry records (delta
        manifests for sync: a puller sends the hashes it already holds
        and receives only what it lacks).  Coverage and config are
        always included — they merge, they don't dedup.

        Everything is read from disk — never from this handle's caches —
        so the snapshot observes entries and commits made by *other*
        processes or threads since this handle was opened.  Ordering is
        the consistency argument:

        1. the checkpoint is captured first (one atomic file), pinning a
           coverage generation;
        2. the referenced ``.npz`` snapshots are loaded — if a racing
           commit's GC deleted that generation mid-read, the whole read
           restarts from a fresh checkpoint (bounded retries);
        3. ``meta.jsonl`` is captured *after* the checkpoint, and the
           log is append-only, so the entry list is always a superset of
           what the captured coverage has seen — never missing an entry
           the coverage refers to.

        Returns ``{"config", "generation", "entries", "coverage",
        "fuzz"}`` where ``entries`` is a list of plain record dicts.
        """
        last_error = None
        for _ in range(_SNAPSHOT_RETRIES):
            manifest = self._load_manifest()
            checkpoint = self._load_checkpoint()
            try:
                coverage = {
                    name: _coverage_from_npz(os.path.join(self.path, rel))
                    for name, rel in checkpoint.get("coverage", {}).items()}
            except FileNotFoundError as error:
                last_error = error
                continue
            entries = list(self._read_meta_records().values())
            if exclude_hashes:
                exclude = {str(h) for h in exclude_hashes}
                entries = [entry for entry in entries
                           if entry["hash"] not in exclude]
            return {"config": manifest.get("config"),
                    "generation": int(checkpoint.get("coverage_gen", 0)),
                    "entries": entries,
                    "coverage": coverage,
                    "fuzz": checkpoint.get("fuzz")}
        raise ConfigError(
            f"could not take a consistent snapshot of {self.path} after "
            f"{_SNAPSHOT_RETRIES} attempts: a writer kept committing over "
            f"the read ({last_error})")

    # -- distillation -------------------------------------------------------
    def distill(self, networks, threshold=0.0):
        """Shrink the corpus to a coverage-preserving subset.

        Greedy set-cover (:func:`repro.analysis.minimize.minimize_suite`)
        over the stored *test* entries: the kept subset standalone-covers
        every neuron the full test set covers on ``networks``.  Seed
        entries are kept (they are the fuzzable frontier, not redundant
        artifacts).  The committed *merged* coverage is left untouched —
        it also remembers ascent-path activations that no stored input
        reproduces, and forgetting it would make later sessions re-chase
        covered neurons.  The committed fuzz scheduler is pruned of the
        dropped entries in the same commit, so a resumed session never
        schedules an entry that no longer exists.

        Returns ``(kept, dropped)`` entry counts (over test entries).
        """
        tests = self.entries(kind="test")
        if not tests:
            return 0, 0
        hashes = [entry["hash"] for entry in tests]
        chosen, _ = minimize_suite(networks, self.load_inputs(hashes),
                                   threshold=threshold)
        keep_hashes = {hashes[i] for i in chosen}
        keep_hashes |= {e["hash"] for e in self.entries(kind="seed")}
        dropped = [h for h in self._entries if h not in keep_hashes]
        self._entries = {h: e for h, e in self._entries.items()
                         if h in keep_hashes}
        lines = "".join(json.dumps(e, sort_keys=True) + "\n"
                        for e in self._entries.values())
        atomic_write_bytes(self.meta_path, lines.encode("utf-8"))
        for entry_hash in dropped:
            path = self.input_path(entry_hash)
            if os.path.exists(path):
                os.unlink(path)
        state = self.fuzz_state()
        if state and state.get("scheduler"):
            state["scheduler"]["entries"] = [
                record for record in state["scheduler"]["entries"]
                if record["hash"] in self._entries]
        self.commit(fuzz_state=state)
        return len(keep_hashes & set(hashes)), len(dropped)

    def describe(self):
        """One-paragraph human summary (the ``corpus info`` command)."""
        kinds = {}
        for entry in self._entries.values():
            kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + 1
        coverage = self.coverage_states()
        lines = [f"corpus at {self.path}",
                 f"  entries : {len(self._entries)} "
                 + " ".join(f"{k}={v}" for k, v in sorted(kinds.items()))]
        for name, state in sorted(coverage.items()):
            tracked = int(state["tracked"].sum())
            covered = int((state["covered"] & state["tracked"]).sum())
            frac = covered / tracked if tracked else 0.0
            lines.append(f"  coverage: {name} {covered}/{tracked} "
                         f"({frac:.1%})")
        fuzz = self.fuzz_state()
        if fuzz:
            lines.append(f"  fuzz    : {fuzz.get('completed_rounds', 0)} "
                         f"round(s) completed, root seed "
                         f"{fuzz.get('root_seed')}")
        return "\n".join(lines)

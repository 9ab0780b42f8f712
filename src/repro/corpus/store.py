"""On-disk, content-addressed corpus store.

A :class:`CorpusStore` is the persistence layer that turns one-shot
generation runs into an ever-growing campaign: every seed and every
difference-inducing test lives in the store, together with the merged
per-model coverage reached so far, and any later run (``repro fuzz``,
``repro generate --resume``) picks up exactly where the corpus left off.

Layout (everything under one directory)::

    corpus/
      MANIFEST.json            # store version + config fingerprint
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
  :meth:`~CorpusStore.snapshot` reads every file again but decodes
  only bytes its handle has not decoded before.
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
import pickle
import re
import zipfile

import numpy as np

from repro.analysis.minimize import minimize_suite
from repro.coverage import merge_state_dicts
from repro.errors import ConfigError
from repro.utils.atomicio import (append_json_line, atomic_write_bytes,
                                  atomic_write_json)
from repro.utils.faults import fault_point

__all__ = ["CorpusStore", "corpus_fingerprint", "input_hash",
           "coverage_to_bytes", "coverage_from_bytes",
           "coverage_states_equal", "merge_coverage_states"]

STORE_VERSION = 1

#: How many times :meth:`CorpusStore.snapshot` restarts when a racing
#: commit garbage-collects a coverage generation out from under it.
_SNAPSHOT_RETRIES = 5

_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]")

#: A checkpoint's coverage reference: one file directly in
#: ``coverage/``, named as :meth:`CorpusStore.commit` names it.
_COVERAGE_REF = re.compile(r"coverage/[A-Za-z0-9_.-]+\.npz")

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


#: What ``np.load``, the ``.npz`` readers and the record decoders raise
#: on bytes or JSON that are not a well-formed payload.
BAD_PAYLOAD = (ValueError, TypeError, KeyError, AttributeError,
               OverflowError, EOFError, zipfile.BadZipFile)


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


def _load_coverage_file(path, last=None):
    """``(bytes, state)`` of one committed coverage snapshot; ``last``,
    an earlier result for the same model, is returned when the bytes
    still match it.  A file that is not one (garbage, empty, or an
    archive without ``config``/``tracked``/``covered``) is a
    :class:`ConfigError` naming it; a missing file still raises
    :class:`FileNotFoundError`, which :meth:`CorpusStore.snapshot`
    retries."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        if last is not None and last[0] == data:
            return last
        return data, coverage_from_bytes(data)
    except FileNotFoundError:
        raise
    except (OSError,) + BAD_PAYLOAD as error:
        raise ConfigError(f"unreadable coverage snapshot {path}: "
                          f"{error}") from None


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


def _read_bytes(path):
    """The bytes in ``path``, or ``None`` when there is no file."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def _json_object(path, data):
    """The JSON object in ``data``, the bytes of ``path``.

    Bytes that are not one JSON object are a :class:`ConfigError` naming
    the file, so a garbled store answers a read verb with a typed error.
    """
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and integers past
        # Python's digit limit; RecursionError, nesting too deep.
        raise ConfigError(f"corrupt store file {path}: {error}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"corrupt store file {path}: expected a JSON "
                          f"object, got {type(obj).__name__}")
    return obj


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
        self._config = self._load_manifest().get("config")
        # What this handle's last snapshot() decoded, kept with the
        # bytes it came from so the next one decodes only what changed:
        # meta.jsonl as _read_meta's ``seen``, the checkpoint's bytes with
        # its generation and coverage references, and each model's
        # coverage file bytes with its state.
        self._seen_meta = None
        self._seen_checkpoint = None
        self._seen_coverage = {}

    # -- loading ------------------------------------------------------------
    @functools.cached_property
    def _entries(self):
        """``{hash: record}`` in insertion order, read on first use."""
        return self._read_meta()[0]

    @functools.cached_property
    def _checkpoint(self):
        """The committed checkpoint, read on first use."""
        return self._parse_checkpoint(_read_bytes(self.checkpoint_path))

    def _read_meta(self, seen=None):
        """Decode ``meta.jsonl``; returns ``(records, seen)``.

        ``records`` maps each entry's hash to its record, in file order.
        The file is captured in one read, so it is a point-in-time
        prefix of the append-only log even while another process (or
        thread) appends to it.  ``seen`` is ``(prefix, lines, records)``
        for the file's complete lines: passed back in, it makes the next
        read decode only the lines after ``prefix``, or every line again
        when the file no longer starts with those bytes (distill's
        rewrite, a store deleted and recreated).  The text after the
        last newline, a torn or in-flight append, is decoded on every
        read and never kept in ``seen``.
        """
        data = _read_bytes(self.meta_path) or b""
        prefix, lines, records = seen or (b"", 0, {})
        if not data.startswith(prefix):
            prefix, lines, records = b"", 0, {}
        cut = data.rfind(b"\n") + 1
        if cut > len(prefix):
            new = {}
            lines = self._decode_lines(data, len(prefix), cut, lines, new)
            records.update(new)         # only once every line decoded
            prefix = data[:cut]
        tail = {}
        self._decode_lines(data, cut, len(data), lines, tail)
        return ({**records, **tail} if tail else records,
                (prefix, lines, records))

    def _decode_lines(self, data, start, end, number, records):
        """Decode the lines of ``data[start:end]`` into ``records``; the
        first one is line ``number + 1``.  Returns the last line's number.

        A line that is not complete JSON (a crash or an in-flight
        append) is skipped — the entry's ``.npy`` may exist but
        unreferenced files are harmless and re-adding is idempotent.
        Bytes that are not UTF-8, or a line that decodes to anything but
        an entry record, are a :class:`ConfigError` naming the file (and
        the byte or line): no torn append produces either.
        """
        try:
            text = data[start:end].decode("utf-8")
        except UnicodeDecodeError as error:
            raise ConfigError(
                f"corrupt store file {self.meta_path}: byte "
                f"{start + error.start} is not UTF-8") from None
        for number, line in enumerate(text.splitlines(), number + 1):
            line = line.strip()
            if not line:
                continue
            try:
                record, stop = _decode_record(line)
            except json.JSONDecodeError:
                continue
            except (ValueError, RecursionError) as error:
                raise ConfigError(f"corrupt store file {self.meta_path} "
                                  f"line {number}: {error}") from None
            if stop != len(line):
                continue            # trailing bytes: not one JSON value
            if not (isinstance(record, dict)
                    and isinstance(record.get("hash"), str)
                    and isinstance(record.get("kind"), str)):
                raise ConfigError(
                    f"corrupt store file {self.meta_path} line {number}: "
                    f"not an entry record with a hash and a kind")
            records[record["hash"]] = record
        return number

    def _parse_checkpoint(self, data):
        """The checkpoint in ``data``, the bytes of ``checkpoint.json``
        (``None``: no commit yet).  A :class:`ConfigError` naming the
        file when a field has the wrong shape, so no reader joins a
        reference that leaves ``coverage/`` to the store path."""
        if data is None:
            return {"version": STORE_VERSION, "coverage_gen": 0,
                    "coverage": {}, "fuzz": None}
        checkpoint = _json_object(self.checkpoint_path, data)
        coverage = checkpoint.get("coverage", {})
        gen = checkpoint.get("coverage_gen", 0)
        if not (isinstance(coverage, dict)
                and all(isinstance(ref, str) and _COVERAGE_REF.fullmatch(ref)
                        for ref in coverage.values())):
            problem = "coverage must map model names to files in coverage/"
        elif type(gen) is not int or gen < 0:
            problem = f"coverage_gen must be an integer >= 0, got {gen!r}"
        elif not isinstance(checkpoint.get("fuzz"), (dict, type(None))):
            problem = "fuzz must be null or an object"
        else:
            return checkpoint
        raise ConfigError(
            f"corrupt store file {self.checkpoint_path}: {problem}")

    def _load_manifest(self):
        """``MANIFEST.json``; a store of another format version is a
        :class:`ConfigError`.  Only ``version`` and ``config`` are read:
        the entry and generation counters earlier builds also wrote are
        ignored."""
        data = _read_bytes(self.manifest_path)
        manifest = ({"version": STORE_VERSION, "config": None}
                    if data is None else _json_object(self.manifest_path,
                                                      data))
        if manifest.get("version", STORE_VERSION) != STORE_VERSION:
            raise ConfigError(
                f"corpus store at {self.path} has version "
                f"{manifest.get('version')!r}; this build reads "
                f"version {STORE_VERSION}")
        return manifest

    # -- config fingerprint -------------------------------------------------
    def bind_config(self, config):
        """Pin (or validate) the store's config fingerprint.

        ``config`` is a JSON-safe dict naming what the corpus was built
        against (model names, coverage threshold/scaling, task).  The
        first binder writes it; later binders must match — feeding a
        corpus built for one model trio into another is a
        :class:`ConfigError`, not silently wrong coverage.
        """
        if not isinstance(config, dict):
            raise ConfigError(f"a corpus config must be an object, got "
                              f"{type(config).__name__}")
        config = json.loads(json.dumps(config))  # normalize to JSON types
        if self._config is None:
            self._config = config
            atomic_write_json(self.manifest_path, {
                "version": STORE_VERSION, "config": config})
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
        append_json_line(self.meta_path, record)
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
            states[name] = _load_coverage_file(
                os.path.join(self.path, rel_path))[1]
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

    # -- consistent reads ---------------------------------------------------
    def snapshot(self, exclude_hashes=None):
        """Crash-consistent point-in-time view of this store's disk state.

        ``exclude_hashes`` filters the returned entry records (delta
        manifests for sync: a puller sends the hashes it already holds
        and receives only what it lacks).  Coverage and config are
        always included — they merge, they don't dedup.

        Every file is read from disk — never from this handle's entry
        index or checkpoint — so the snapshot observes entries and
        commits made by *other* processes or threads since this handle
        was opened.  Ordering is the consistency argument:

        1. the checkpoint is captured first (one atomic file), pinning a
           coverage generation;
        2. the referenced ``.npz`` snapshots are loaded — if a racing
           commit's GC deleted that generation mid-read, the whole read
           restarts from a fresh checkpoint (bounded retries);
        3. ``meta.jsonl`` is captured *after* the checkpoint, and the
           log is append-only, so the entry list is always a superset of
           what the captured coverage has seen — never missing an entry
           the coverage refers to.

        What the handle's previous snapshot decoded is reused for bytes
        that are still the same: the ``meta.jsonl`` lines before the end
        of the prefix it decoded (:meth:`_read_meta`), an unchanged
        checkpoint, and a model's coverage file whose bytes match.  So a
        snapshot costs the reads plus a decode of what changed, and
        returns exactly what a fresh handle's would: the result is a
        function of the bytes on disk, and a torn tail or a bad line is
        never kept.  Not thread-safe: a handle shared across threads
        needs a lock around this call.

        Returns ``{"config", "generation", "entries", "coverage"}``
        where ``entries`` is a list of plain record dicts.  The caller
        owns it: nothing in it is shared with the handle.
        """
        last_error = None
        for _ in range(_SNAPSHOT_RETRIES):
            config = self._load_manifest().get("config")
            data = _read_bytes(self.checkpoint_path)
            if self._seen_checkpoint is None \
                    or self._seen_checkpoint[0] != data:
                checkpoint = self._parse_checkpoint(data)
                self._seen_checkpoint = (
                    data, checkpoint.get("coverage_gen", 0),
                    checkpoint.get("coverage", {}))
            _, generation, refs = self._seen_checkpoint
            try:
                self._seen_coverage = {
                    name: _load_coverage_file(os.path.join(self.path, rel),
                                              self._seen_coverage.get(name))
                    for name, rel in refs.items()}
            except FileNotFoundError as error:
                last_error = error
                continue
            records, self._seen_meta = self._read_meta(self._seen_meta)
            exclude = {str(h) for h in exclude_hashes or ()}
            snap = {"config": config, "generation": generation,
                    "entries": [entry for entry in records.values()
                                if entry["hash"] not in exclude],
                    "coverage": {name: state for name, (_, state)
                                 in self._seen_coverage.items()}}
            # A deep copy, so a caller that edits what it got cannot
            # change what the next snapshot returns.  The records are
            # plain JSON values and the states hold arrays, which a
            # pickle round trip copies exactly, about four times faster
            # than copy.deepcopy; it costs what the filter lets through.
            return pickle.loads(pickle.dumps(snap, pickle.HIGHEST_PROTOCOL))
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

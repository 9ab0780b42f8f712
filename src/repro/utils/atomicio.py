"""Crash-safe file writes: temp file + fsync + atomic rename, and
durable appends.

The two write disciplines every durable artifact in this repo uses.
Whole files — corpus inputs and checkpoints, coverage snapshots, the
farm job journal's compacted snapshot and the daemon endpoint file —
land by :func:`atomic_write_bytes`: a reader never observes a torn
file, it sees the old contents or the new contents, nothing between,
even across ``kill -9``.  Append-only logs — a corpus store's
``meta.jsonl`` and the records after the job journal's snapshot — grow
one fsynced line at a time by :func:`append_json_line`; their readers
skip a torn line.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["append_json_line", "atomic_write_bytes", "atomic_write_json"]


def atomic_write_bytes(path, payload):
    """Write ``payload`` to ``path`` atomically (temp file + replace)."""
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _json_line(obj):
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def atomic_write_json(path, obj):
    """Write ``obj`` to ``path`` atomically as compact, key-sorted JSON.

    Compact on purpose: ``indent`` makes CPython encode in pure Python
    instead of its C encoder, about three times slower on a checkpoint
    that is rewritten every wave.
    """
    atomic_write_bytes(path, _json_line(obj))


def append_json_line(path, obj):
    """Append ``obj`` to the log at ``path`` as one line of compact,
    key-sorted JSON, flushed and fsynced before returning."""
    line = _json_line(obj)
    with open(path, "a+b") as handle:
        # A crash mid-append leaves the log without its final newline:
        # start on a fresh line, or the next load skips this record
        # along with the torn one.
        if handle.tell():
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                line = b"\n" + line
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())

"""Crash-safe file writes: temp file + fsync + atomic rename.

The one write discipline every durable artifact in this repo uses —
corpus inputs and checkpoints, coverage snapshots, the farm's job
journal and daemon endpoint file.  A reader never observes a torn
file: it sees the old contents or the new contents, nothing between,
even across ``kill -9``.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["atomic_write_bytes", "atomic_write_json"]


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


def atomic_write_json(path, obj):
    """Write ``obj`` to ``path`` atomically as compact, key-sorted JSON.

    Compact on purpose: ``indent`` makes CPython encode in pure Python
    instead of its C encoder, about three times slower on a checkpoint
    that is rewritten every wave.
    """
    atomic_write_bytes(path, (json.dumps(obj, sort_keys=True,
                                         separators=(",", ":"))
                              + "\n").encode("utf-8"))

"""Advisory store locks with liveness-checked staleness recovery.

Corpus stores are single-writer; the farm enforces that across
*processes* with a ``LOCK`` file in the store directory recording the
holder's pid.  Creation is ``O_CREAT | O_EXCL`` (atomic on POSIX), so
two processes cannot both win.  A lock whose pid no longer exists is
stale — the normal aftermath of ``kill -9`` — and is silently broken;
a lock held by a live foreign process raises :class:`StoreLockedError`.

Advisory only: :class:`~repro.corpus.store.CorpusStore` itself does
not check it.  The farm daemon takes the lock around every job, and
refuses submits against stores a live outsider holds.
"""

from __future__ import annotations

import json
import os

from repro.errors import FarmError

__all__ = ["StoreLock", "StoreLockedError", "lock_holder"]

LOCK_NAME = "LOCK"

#: Largest pid a holder may name (a C ``pid_t``; ``os.kill`` refuses
#: anything past it).
MAX_PID = 2 ** 31 - 1


class StoreLockedError(FarmError):
    """The store is locked by a live process that is not us."""

    def __init__(self, path, holder):
        self.holder = holder
        super().__init__(
            f"store at {path} is locked by pid {holder.get('pid')} "
            f"({holder.get('owner', 'unknown')})")


def _is_pid(value):
    """True for a JSON value that can name a process: an int (not a
    bool) in ``1..MAX_PID``."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and 1 <= value <= MAX_PID)


def _pid_alive(pid):
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, TypeError, ValueError, OverflowError):
        return False
    except PermissionError:
        return True     # exists, owned by someone else
    return True


def lock_holder(store_path):
    """The live foreign holder of ``store_path``'s lock, or ``None``.

    ``None`` means free: no lock file, an unreadable or torn one, a
    garbled one (not UTF-8 JSON, not an object, or a ``pid`` that is not
    an int in ``1..MAX_PID``: no live process can hold it), a stale one
    (dead pid), or our own.
    """
    path = os.path.join(store_path, LOCK_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            holder = json.load(handle)
    except (OSError, ValueError, RecursionError):  # UnicodeDecodeError too
        return None
    pid = holder.get("pid") if isinstance(holder, dict) else None
    if not _is_pid(pid) or pid == os.getpid() or not _pid_alive(pid):
        return None
    return holder


class StoreLock:
    """Context-managed exclusive lock on one store directory."""

    def __init__(self, store_path, owner="repro"):
        self.store_path = os.path.abspath(store_path)
        self.lock_path = os.path.join(self.store_path, LOCK_NAME)
        self.owner = str(owner)
        self._held = False

    def acquire(self):
        os.makedirs(self.store_path, exist_ok=True)
        payload = (json.dumps({"pid": os.getpid(), "owner": self.owner},
                              sort_keys=True) + "\n").encode("utf-8")
        while not self._held:
            try:
                fd = os.open(self.lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                holder = lock_holder(self.store_path)
                if holder is not None:
                    raise StoreLockedError(self.store_path, holder) \
                        from None
                # Stale (dead pid or our own leftover): break it and
                # race for the fresh file again.
                try:
                    os.unlink(self.lock_path)
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            self._held = True
        return self

    def release(self):
        if self._held:
            self._held = False
            try:
                os.unlink(self.lock_path)
            except FileNotFoundError:
                pass

    def __enter__(self):
        return self.acquire()

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

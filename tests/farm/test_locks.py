"""Store locks: exclusion, liveness-checked staleness, kill -9 healing."""

import json
import os

import pytest

from repro.farm import StoreLock, StoreLockedError, lock_holder
from repro.farm.locks import LOCK_NAME


def write_lock(path, pid, owner="someone"):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, LOCK_NAME), "w",
              encoding="utf-8") as handle:
        json.dump({"pid": pid, "owner": owner}, handle)


def test_acquire_release_round_trip(tmp_path):
    store = str(tmp_path / "s")
    with StoreLock(store, owner="test") as lock:
        assert os.path.exists(lock.lock_path)
        with open(lock.lock_path, encoding="utf-8") as handle:
            holder = json.load(handle)
        assert holder["pid"] == os.getpid()
    assert not os.path.exists(lock.lock_path)


def test_live_foreign_holder_blocks(tmp_path):
    """Pid 1 is always alive and never us: the canonical live outsider."""
    store = str(tmp_path / "s")
    write_lock(store, pid=1)
    assert lock_holder(store)["pid"] == 1
    with pytest.raises(StoreLockedError):
        StoreLock(store).acquire()


def test_stale_lock_from_dead_pid_is_broken(tmp_path):
    """The kill -9 aftermath: a lock naming a dead pid self-heals."""
    store = str(tmp_path / "s")
    write_lock(store, pid=2 ** 22 + 12345)      # beyond default pid_max
    assert lock_holder(store) is None
    with StoreLock(store) as lock:
        with open(lock.lock_path, encoding="utf-8") as handle:
            assert json.load(handle)["pid"] == os.getpid()


def test_own_pid_lock_is_not_a_conflict(tmp_path):
    store = str(tmp_path / "s")
    write_lock(store, pid=os.getpid())
    assert lock_holder(store) is None


def test_torn_lock_file_reads_as_free(tmp_path):
    store = str(tmp_path / "s")
    os.makedirs(store)
    with open(os.path.join(store, LOCK_NAME), "w",
              encoding="utf-8") as handle:
        handle.write('{"pid": 12')              # torn mid-write
    assert lock_holder(store) is None
    with StoreLock(store):
        pass


#: ``LOCK`` bodies that name no process: each must read as free, like a
#: torn one, and never raise out of ``acquire``.
GARBLED_HOLDERS = {
    "not-an-object": b"[1, 2]",
    "pid-a-string": b'{"pid": "abc"}',
    "not-utf8": b"\xff\xfe\x00",
    "pid-past-float-range": b'{"pid": 1e400}',
}


@pytest.mark.parametrize("case", sorted(GARBLED_HOLDERS))
def test_garbled_lock_file_reads_as_free(tmp_path, case):
    store = str(tmp_path / "s")
    os.makedirs(store)
    with open(os.path.join(store, LOCK_NAME), "wb") as handle:
        handle.write(GARBLED_HOLDERS[case])
    assert lock_holder(store) is None
    with StoreLock(store) as lock:
        with open(lock.lock_path, encoding="utf-8") as handle:
            assert json.load(handle)["pid"] == os.getpid()
    assert not os.path.exists(lock.lock_path)


def test_release_is_idempotent(tmp_path):
    lock = StoreLock(str(tmp_path / "s"))
    lock.acquire()
    lock.release()
    lock.release()

#!/usr/bin/env python
"""CI smoke check for the farm daemon: kill -9 mid-job, restart, finish.

Boots a real ``repro serve`` daemon on a temp farm root, submits two
concurrent jobs against separate tenant stores (one fuzz, one
generate), SIGKILLs the daemon once the fuzz store shows committed
progress, restarts it, and asserts both jobs run to ``done`` — the
interrupted one resumed from its store checkpoint, the queue recovered
from its journal.  The daemon's child processes (its worker threads'
engine processes) are read just before the kill, and each must exit
within 10 s of it: none may outlive the daemon as an orphan.  This is
the farm's crash contract (docs/FARM.md) at CLI-smoke scale; the
deterministic fault-injection matrix lives in ``tests/farm/``.

Exit code 0 on success, non-zero with a summary on any failure.

Usage:  PYTHONPATH=src python tools/farm_smoke.py
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.corpus import CorpusStore
from repro.farm import FarmClient

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                   os.pardir, "src"))

FUZZ_SPEC = {"store": "tenant-a", "kind": "fuzz", "rounds": 4,
             "seeds": 12, "wave_size": 6, "shard_size": 4, "seed": 7}
GEN_SPEC = {"store": "tenant-b", "kind": "generate", "seeds": 8,
            "shard_size": 4, "seed": 3}


def start_daemon(root):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", root,
         "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


def wait_ready(root, proc, timeout=300.0):
    client = FarmClient(root, timeout=5)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"daemon exited {proc.returncode} before "
                             f"ready:\n{proc.stdout.read()}")
        try:
            client.ping()
            return client
        except Exception:
            time.sleep(0.1)
    raise SystemExit("daemon never became ready")


def wait_for_store_progress(store_path, timeout=420.0):
    """Block until the fuzz store has committed at least one round
    (the first run in CI also trains the smoke model trio here)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.isdir(store_path):
            state = CorpusStore(store_path).fuzz_state()
            if state is not None and state["completed_rounds"] >= 1:
                return state
        time.sleep(0.1)
    raise SystemExit("fuzz job never committed a round")


def child_pids(pid):
    """Pids of the processes ``pid``'s threads started (each worker
    thread starts its own engine process)."""
    children = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path, encoding="ascii") as handle:
                listed = handle.read().split()
        except OSError:
            continue            # that thread exited while we looked
        children.extend(int(child) for child in listed)
    return children


def has_exited(pid):
    """Whether ``pid`` is gone or a zombie (exited, awaiting its reaper:
    an orphan's new parent need not reap it)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def wait_children_exit(pids, timeout=10.0):
    """Fail unless every pid in ``pids`` exits within ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [pid for pid in pids if not has_exited(pid)]
        if not alive:
            return
        if time.monotonic() > deadline:
            raise SystemExit(f"daemon child process(es) {alive} still "
                             f"running {timeout:.0f} s after its SIGKILL")
        time.sleep(0.1)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "farm")

        proc = start_daemon(root)
        client = wait_ready(root, proc)
        fuzz = client.submit(FUZZ_SPEC)
        gen = client.submit(GEN_SPEC)
        print(f"submitted {fuzz['job_id']} (fuzz -> tenant-a) and "
              f"{gen['job_id']} (generate -> tenant-b)")

        state = wait_for_store_progress(
            os.path.join(root, "stores", "tenant-a"))
        children = child_pids(proc.pid)
        if not children:
            raise SystemExit("the daemon runs no engine process mid-job")
        print(f"fuzz store at {state['completed_rounds']} committed "
              f"round(s); sending SIGKILL to daemon pid {proc.pid} "
              f"(child processes {children})")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        wait_children_exit(children)
        print("every child process of the killed daemon exited")

        proc = start_daemon(root)
        client = wait_ready(root, proc)
        for job_id in (fuzz["job_id"], gen["job_id"]):
            record = client.wait(job_id, timeout=420)
            result = " ".join(f"{k}={v}" for k, v in
                              sorted(record["result"].items()))
            print(f"{job_id} done after restart: {result}")

        counts = client.counts()
        client.drain()
        code = proc.wait(timeout=120)
        if counts.get("done") != 2 or counts.get("failed"):
            raise SystemExit(f"unexpected final job counts: {counts}")
        if code != 0:
            raise SystemExit(f"drained daemon exited {code}")
        final = CorpusStore(
            os.path.join(root, "stores", "tenant-a")).fuzz_state()
        if final["completed_rounds"] != FUZZ_SPEC["rounds"]:
            raise SystemExit(
                f"fuzz store resumed to {final['completed_rounds']} "
                f"round(s), wanted {FUZZ_SPEC['rounds']}")

    print("farm smoke OK: daemon kill -9 + restart completed both jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

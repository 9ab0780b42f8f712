#!/usr/bin/env python
"""CI smoke for the distributed campaign fabric (docs/DISTRIBUTED.md).

Boots two real ``repro serve`` daemons on localhost and runs one
federated fuzzing campaign across them, with a deterministic crash in
the middle:

1. a solo in-process ``FuzzSession`` produces the reference store (and
   warms the smoke-trio weight cache both daemons load from);
2. host B — armed with ``REPRO_FAULTS="dist.shard.claim:2"`` — runs the
   federate job first: it finishes one shard, claims a second, and
   exits 137 holding it;
3. host A runs the same federate job, steals B's abandoned claim (B's
   recorded pid is provably dead on this machine, so no lease wait;
   the cross-machine lease-expiry path is tier-1 tested in
   tests/dist/), finishes the campaign, and its store must be
   byte-identical to the solo reference (it merged B's shard result —
   a genuine cross-host merge);
4. host B restarts clean; its journaled job resumes, replays the done
   ledger without recomputing, and must converge to the same bytes;
5. a corpus pull over TCP (``RemoteSource``) from host A must be
   idempotent: the second pull adds nothing — and cheap: the cold pull
   must cost at most ``1 + ceil(entries/batch)`` wire round-trips (the
   batched ``store-entries`` verb), the warm re-pull exactly one (the
   ``have``-filtered delta manifest), and the no-op re-pull must not
   bump the mirror's checkpoint generation;
6. a ``compact-distill`` job rewrites host A's store under the read
   handle its daemon keeps for the store verbs: a cold pull into a
   fresh mirror must then hold exactly what a fresh read of A's store
   holds, and re-pulling the old mirror must still add nothing in one
   round trip;
7. the same federated campaign is timed at hosts=1 and hosts=2 and the
   seeds/sec — plus the ``hosts=2 / hosts=1`` speedup ratio — written
   to ``BENCH_dist.json`` (gated in CI by ``tools/bench_compare.py``).

Exit code 0 on success, non-zero with a summary on any failure.

Usage:  PYTHONPATH=src python tools/dist_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                   os.pardir, "src"))
sys.path.insert(0, SRC)

from repro.core import PAPER_HYPERPARAMS, constraint_for_dataset, make_rule
from repro.corpus import CorpusStore, FuzzSession
from repro.datasets import load_dataset
from repro.farm import FarmClient
from repro.farm.server import read_endpoint
from repro.models import get_trio
from repro.utils.faults import KILL_EXIT_CODE

BENCH_PATH = os.path.join(os.path.dirname(SRC), "BENCH_dist.json")

#: One campaign identity for every run in this smoke: the whole point
#: is that placement (solo / 1 host / 2 hosts / crashed host) never
#: shows up in the bytes.
ROUNDS, SEEDS, WAVE, SHARD, SEED = 3, 10, 5, 2, 11
LEASE = 5.0


def federate_spec(store, campaign_dir):
    return {"store": store, "kind": "federate", "dataset": "mnist",
            "rounds": ROUNDS, "seeds": SEEDS, "wave_size": WAVE,
            "shard_size": SHARD, "seed": SEED, "campaign": campaign_dir,
            "lease": LEASE}


def start_daemon(root, faults=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", root,
         "--workers", "1"],
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


def solo_reference(path):
    dataset = load_dataset("mnist", scale="smoke", seed=0)
    models = get_trio("mnist", scale="smoke", seed=0, dataset=dataset)
    session = FuzzSession(
        path, models, PAPER_HYPERPARAMS["mnist"],
        constraint_for_dataset(dataset, kind="default"),
        task=dataset.task, wave_size=WAVE, workers=1, shard_size=SHARD,
        seed=SEED, rule=make_rule("vanilla", beta=None, overshoot=None),
        dataset=dataset, initial_seed_count=SEEDS)
    session.run(ROUNDS)
    return session


def compare_stores(reference, candidate, label, fuzz_state=True):
    """Byte-compare two stores; SystemExit naming the first mismatch."""
    a, b = CorpusStore(reference), CorpusStore(candidate)
    if a.entries() != b.entries():
        raise SystemExit(f"{label}: entry records differ "
                         f"({len(a)} vs {len(b)} entries)")
    for entry in a.entries():
        xa, xb = a.load_input(entry["hash"]), b.load_input(entry["hash"])
        if not np.array_equal(xa, xb):
            raise SystemExit(f"{label}: input bytes differ for "
                             f"{entry['hash'][:12]}")
    cov_a, cov_b = a.coverage_states(), b.coverage_states()
    if sorted(cov_a) != sorted(cov_b):
        raise SystemExit(f"{label}: coverage models differ")
    for name in cov_a:
        if not np.array_equal(cov_a[name]["covered"],
                              cov_b[name]["covered"]):
            raise SystemExit(f"{label}: coverage mask differs for {name}")
    if fuzz_state and a.fuzz_state() != b.fuzz_state():
        raise SystemExit(f"{label}: fuzz-session state differs")
    print(f"{label}: byte-identical ({len(a)} entries)")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        solo_path = os.path.join(tmp, "solo")
        print("running solo reference session (trains the smoke trio "
              "on a cold cache)...")
        solo = solo_reference(solo_path)
        print(f"solo: {solo.completed_rounds} rounds, "
              f"{len(solo.store)} entries")

        root_a = os.path.join(tmp, "hostA")
        root_b = os.path.join(tmp, "hostB")
        campaign = os.path.join(tmp, "campaign")
        spec = federate_spec("fed", campaign)

        # -- crash phase: B dies holding a claim, A steals ------------
        proc_b = start_daemon(root_b, faults="dist.shard.claim:2")
        client_b = wait_ready(root_b, proc_b)
        job_b = client_b.submit(spec)
        print(f"host B running federate job {job_b['job_id']} "
              f"(armed to die on its 2nd shard claim)")
        code = proc_b.wait(timeout=420)
        if code != KILL_EXIT_CODE:
            raise SystemExit(f"host B exited {code}, wanted the "
                             f"injected kill ({KILL_EXIT_CODE})")
        print(f"host B died with exit {code}, ledger holds its claim")

        proc_a = start_daemon(root_a)
        client_a = wait_ready(root_a, proc_a)
        job_a = client_a.submit(spec)
        t0 = time.monotonic()
        record = client_a.wait(job_a["job_id"], timeout=420)
        steal_seconds = time.monotonic() - t0
        if record["status"] != "done":
            raise SystemExit(f"host A federate job failed: "
                             f"{record.get('error')}")
        print(f"host A finished the campaign in {steal_seconds:.1f}s "
              f"(stole the dead claim by pid check): {record['result']}")
        compare_stores(solo_path, os.path.join(root_a, "stores", "fed"),
                       "host A vs solo")

        # -- restart phase: B resumes and replays the done ledger ------
        proc_b = start_daemon(root_b)
        client_b = wait_ready(root_b, proc_b)
        record = client_b.wait(job_b["job_id"], timeout=420)
        if record["status"] != "done":
            raise SystemExit(f"restarted host B job failed: "
                             f"{record.get('error')}")
        compare_stores(solo_path, os.path.join(root_b, "stores", "fed"),
                       "restarted host B vs solo")

        # -- sync phase: TCP pull is idempotent, batched, and delta-aware
        from repro.dist import DEFAULT_BATCH, RemoteSource, pull
        port_a = read_endpoint(root_a)["port"]
        mirror = CorpusStore(os.path.join(tmp, "mirror"))
        source = RemoteSource("127.0.0.1", port_a, "fed")
        added = pull(mirror, source)
        cold_trips = source.client.requests
        generation = CorpusStore(mirror.path).snapshot()["generation"]
        again = pull(mirror, source)
        warm_trips = source.client.requests - cold_trips
        if added != len(mirror) or again != 0:
            raise SystemExit(f"TCP pull not idempotent: first={added} "
                             f"second={again} entries={len(mirror)}")
        trip_budget = 1 + -(-added // DEFAULT_BATCH)  # manifest + batches
        if cold_trips > trip_budget:
            raise SystemExit(
                f"cold pull cost {cold_trips} round-trips for {added} "
                f"entries; the batched wire protocol budgets "
                f"{trip_budget} (1 manifest + ceil(n/{DEFAULT_BATCH}))")
        if warm_trips != 1:
            raise SystemExit(
                f"warm re-pull cost {warm_trips} round-trips; the "
                f"have-filtered delta manifest should be the only one")
        if CorpusStore(mirror.path).snapshot()["generation"] != generation:
            raise SystemExit(
                "no-op mirror re-sync bumped the checkpoint generation "
                "(the OR-merge was a subset; nothing should commit)")
        print(f"TCP sync: {added} entries in {cold_trips} round-trips "
              f"(budget {trip_budget}), warm re-sync {warm_trips}; "
              f"{source.client.bytes_received} bytes down / "
              f"{source.client.bytes_sent} up on one pooled connection")
        compare_stores(solo_path, mirror.path, "TCP mirror vs solo",
                       fuzz_state=False)    # pulls never move fuzz state

        # -- distill under the daemon's read handle ---------------------
        job = client_a.submit({"store": "fed", "kind": "compact-distill",
                               "dataset": "mnist"})
        record = client_a.wait(job["job_id"], timeout=420)
        if record["status"] != "done":
            raise SystemExit(f"host A compact-distill failed: "
                             f"{record.get('error')}")
        distilled = CorpusStore(os.path.join(tmp, "mirror-distilled"))
        pull(distilled, RemoteSource("127.0.0.1", port_a, "fed"))
        source_entries = CorpusStore(os.path.join(root_a, "stores", "fed"),
                                     create=False).entries()
        if distilled.entries() != source_entries:
            raise SystemExit(
                f"a pull after compact-distill holds {len(distilled)} "
                f"entries, not the {len(source_entries)} host A's store "
                f"holds: the daemon served a stale read")
        trips = source.client.requests
        again = pull(mirror, source)
        if again != 0 or source.client.requests - trips != 1:
            raise SystemExit(
                f"re-pull of the old mirror after compact-distill added "
                f"{again} entries in {source.client.requests - trips} "
                f"round-trips, want 0 in 1")
        print(f"compact-distill on host A: {record['result']}; a fresh "
              f"mirror holds its {len(source_entries)} entries, the old "
              f"mirror re-pulls as a no-op")
        benchmarks = [{
            "name": "dist-sync[pull]",
            "entries": added, "batch": DEFAULT_BATCH,
            "round_trips": cold_trips, "warm_round_trips": warm_trips,
            "bytes_received": source.client.bytes_received,
            "bytes_sent": source.client.bytes_sent,
        }]

        # -- timing phase: hosts=1 vs hosts=2 ---------------------------
        rates = {}
        for hosts, clients in ((1, [client_a]),
                               (2, [client_a, client_b])):
            bench_spec = federate_spec(f"bench{hosts}",
                                       os.path.join(tmp, f"c{hosts}"))
            t0 = time.monotonic()
            jobs = [c.submit(bench_spec) for c in clients]
            for client, job in zip(clients, jobs):
                # Tight poll over the pooled channel: status checks are
                # cheap now, and a loose poll would charge its tail
                # latency to the measured wall-clock.
                record = client.wait(job["job_id"], timeout=420,
                                     poll=0.02)
                if record["status"] != "done":
                    raise SystemExit(f"hosts={hosts} bench job failed: "
                                     f"{record.get('error')}")
            seconds = time.monotonic() - t0
            rates[hosts] = ROUNDS * WAVE / seconds
            benchmarks.append({
                "name": f"dist-federation[hosts={hosts}]",
                "seconds": seconds,
                "hosts": hosts, "rounds": ROUNDS, "wave_size": WAVE,
                "seeds_per_sec": rates[hosts],
            })
            print(f"hosts={hosts}: {seconds:.2f}s "
                  f"({rates[hosts]:.2f} seeds/sec)")
            compare_stores(
                solo_path,
                os.path.join(root_a, "stores", f"bench{hosts}"),
                f"hosts={hosts} bench vs solo")
        speedup = rates[2] / rates[1]
        benchmarks.append({"name": "dist-federation[speedup]",
                           "hosts": 2, "speedup": speedup})
        print(f"federation speedup: {speedup:.2f}x "
              f"(hosts=2 over hosts=1)")

        with open(BENCH_PATH, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "scale": "smoke", "seed": SEED,
                       "benchmarks": benchmarks}, handle, indent=1)
            handle.write("\n")
        print(f"wrote {BENCH_PATH}")

        for client, proc in ((client_a, proc_a), (client_b, proc_b)):
            client.drain()
            code = proc.wait(timeout=120)
            if code != 0:
                raise SystemExit(f"drained daemon exited {code}")

    print("dist smoke OK: kill -9 mid-wave, steal, restart, and TCP "
          "sync all converged to the solo bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

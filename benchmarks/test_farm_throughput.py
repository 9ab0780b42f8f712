"""Farm throughput: jobs/second through the daemon, cold vs warm.

Boots an in-process :class:`~repro.farm.FarmDaemon` (one worker thread)
and pushes generate jobs through it.  The *cold* job is a fresh
daemon's first: it also pays the daemon's first-job costs (loading the
trio from its model source, starting the worker thread's engine
process, which rebuilds the trio from payloads, first-touch
allocations).  The *warm* jobs are the ones that follow on the same
daemon; they run on the engine process the cold job started and
rebuild no model.  Both phases land in
``BENCH_fuzz.json`` with ``jobs_per_sec`` and ``seeds_per_sec`` so the
farm's dispatch overhead has a perf trajectory alongside the raw fuzz
loop's.
"""

import time

from benchmarks.bench_records import record_bench
from benchmarks.conftest import SCALE, SEED
from repro.datasets import load_dataset
from repro.farm import FarmDaemon
from repro.models import get_trio

WARM_JOBS = 3
SEEDS_PER_JOB = 16


def _wait_done(daemon, job_id, timeout=300.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = daemon.status(job_id)
        if record["status"] == "done":
            return record
        if record["status"] == "failed":
            raise AssertionError(f"farm job failed: {record['error']}")
        time.sleep(0.02)
    raise AssertionError(f"farm job {job_id} timed out")


def test_farm_throughput(benchmark, tmp_path):
    dataset = load_dataset("mnist", scale=SCALE, seed=SEED)
    models = get_trio("mnist", scale=SCALE, seed=SEED, dataset=dataset)
    daemon = FarmDaemon(
        str(tmp_path / "farm"), workers=1, capacity=WARM_JOBS + 2,
        model_source=lambda *_: (models, dataset)).start()

    def spec(index):
        return {"store": f"bench-{index}", "kind": "generate",
                "seeds": SEEDS_PER_JOB, "shard_size": 8, "seed": index}

    def run_both():
        cold_start = time.perf_counter()
        cold = _wait_done(daemon, daemon.submit(spec(0)).job_id)
        cold_elapsed = time.perf_counter() - cold_start
        warm_start = time.perf_counter()
        jobs = [daemon.submit(spec(i + 1)) for i in range(WARM_JOBS)]
        warm = [_wait_done(daemon, job.job_id) for job in jobs]
        warm_elapsed = time.perf_counter() - warm_start
        return (cold, cold_elapsed), (warm, warm_elapsed)

    try:
        (cold, cold_s), (warm, warm_s) = benchmark.pedantic(
            run_both, rounds=1, iterations=1)
    finally:
        assert daemon.drain(timeout=60)

    assert cold["result"]["seeds_processed"] == SEEDS_PER_JOB
    warm_seeds = sum(r["result"]["seeds_processed"] for r in warm)
    assert warm_seeds == WARM_JOBS * SEEDS_PER_JOB

    record_bench(cold_s, label="cold", jobs=1,
                 jobs_per_sec=1.0 / max(cold_s, 1e-9),
                 seeds_per_sec=SEEDS_PER_JOB / max(cold_s, 1e-9))
    record_bench(warm_s, label="warm", jobs=WARM_JOBS,
                 jobs_per_sec=WARM_JOBS / max(warm_s, 1e-9),
                 seeds_per_sec=warm_seeds / max(warm_s, 1e-9))

    print()
    print(f"cold: 1 job ({SEEDS_PER_JOB} seeds) in {cold_s:.2f}s "
          f"({1.0 / max(cold_s, 1e-9):.2f} jobs/s)")
    print(f"warm: {WARM_JOBS} jobs ({warm_seeds} seeds) in {warm_s:.2f}s "
          f"({WARM_JOBS / max(warm_s, 1e-9):.2f} jobs/s, "
          f"{warm_seeds / max(warm_s, 1e-9):.1f} seeds/s)")
    # A daemon's later jobs do the same work as its first, minus the
    # first-job costs, so they must not be much slower per job.
    assert warm_s / WARM_JOBS <= cold_s * 1.5

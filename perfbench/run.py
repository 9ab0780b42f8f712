"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fuzz-mnist --seed 0 --seconds 20 \\
        --trace 0

Run from the root of a checkout.  The first run in a checkout trains
the smoke-scale model zoo into ``.bench_build/repro-cache``; later runs
only load it.  A run does a fixed amount of work sized from
``--seconds`` (see ``workloads.sizes_for``), checks the program's
outputs, and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics (untraced);
* ``--trace 1`` runs the same work twice, untraced and then traced,
  and reports the per-layer metrics plus the tracing overhead.

Lines before it record the machine and each timing's median, tail
percentile and sample count.  Exit status is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

LAYERS = ("nn", "coverage", "core", "corpus", "farm", "dist")


def _configure_environment():
    """Pin what the numbers depend on before numpy is imported."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["REPRO_CACHE_DIR"] = os.path.join(BUILD, "repro-cache")
    os.environ.pop("REPRO_FAULTS", None)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from "
                         f"{os.path.join(ROOT, 'src')}: {error}")
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if not where.startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"perfbench: repro was imported from {where}, "
                         f"not from this checkout")


def build():
    """Train (first run) or load every trio the workloads use."""
    from repro.datasets import load_dataset
    from repro.models import get_trio
    for name in ("mnist", "pdf", "driving"):
        get_trio(name, scale="smoke", seed=0,
                 dataset=load_dataset(name, scale="smoke", seed=0))


def fingerprint(run_dir):
    """The machine a result was measured on."""
    import numpy as np
    from perfbench import workloads
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs_type, best = "unknown", ""
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) > 2 and run_dir.startswith(parts[1]) \
                        and len(parts[1]) > len(best):
                    best, fs_type = parts[1], parts[2]
    except OSError:
        pass
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:   # noqa: BLE001 — older numpy has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "store_fs": fs_type,
        "fsync": "counted, not issued (tmpfs cost)",
        "farm_poll_s": workloads.FARM_POLL_S,
    }


def _emit(line):
    print(json.dumps(line, sort_keys=True), flush=True)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(result, setup_seconds):
    """The untraced metrics every workload reports."""
    from perfbench import stats
    steps = stats.summarize(result.step_seconds)
    if steps["tail_p"] is None or steps["tail_p"] < 90:
        raise ValueError(f"{steps['n']} steps support no p90; raise "
                         f"--seconds")
    p90 = stats.percentile(result.step_seconds, 90)
    remirror = stats.summarize(result.remirror_seconds)
    detail = {"step": steps, "remirror": remirror,
              "step_region_s": result.step_region_s,
              "raw_step_region_s": result.raw_step_region_s,
              "wall_s": result.wall_s,
              "calibration_s": result.calibration_s,
              "setup": stats.summarize(setup_seconds) | {
                  "samples": setup_seconds},
              "mirror": {"entries": result.mirror_entries,
                         "seconds": result.mirror_seconds}}
    metrics = {
        "setup_s": _metric(statistics.median(setup_seconds), "s"),
        "seeds_per_s": _metric(result.seeds_scheduled
                               / result.step_region_s, "seeds/s"),
        "diffs_per_s": _metric(result.new_tests / result.step_region_s,
                               "tests/s"),
        "wave_p50_s": _metric(steps["median"], "s"),
        "wave_p90_s": _metric(p90, "s"),
        "remirror_p50_s": _metric(remirror["median"], "s"),
        "new_tests": _metric(result.new_tests, "count"),
        "mean_coverage": _metric(result.mean_coverage, "fraction"),
    }
    return metrics, detail


def per_layer(workload, tracer, timed, counters, result, baseline, jobs):
    """Per-layer metrics from one traced pass (see README); ``timed``
    names the self-time metrics of the wrapped functions."""
    passes, payloads, fsyncs = counters
    selfs = tracer.self_times()
    metrics = {}

    def seconds(name, value):
        metrics[name] = _metric(value, "s")

    def count(name, value, unit="count"):
        metrics[name] = _metric(value, unit)

    for name in timed:
        seconds(name, selfs.get(name, 0.0))
    for member in ("C1", "C2", "C3"):
        for kind in ("forward", "backward"):
            name = f"nn.{member}.{kind}_s"
            seconds(name, tracer.inclusive.get(name, 0.0))
    count("nn.forwards", passes.total_forwards())
    count("nn.forward_samples", sum(passes.forward_samples.values()))
    count("nn.backwards", passes.total_backwards())
    count("coverage.updates", tracer.counts["coverage.updates"])
    count("core.payload_builds", payloads.total())
    count("core.diff_yield", result.new_tests / max(1, result.seeds_scheduled),
          "tests/seed")
    count("corpus.entries_added", tracer.counts["corpus.entries_added"])
    count("corpus.commits", tracer.counts["corpus.commits"])
    count("corpus.checkpoint_bytes", tracer.counts["corpus.checkpoint_bytes"],
          "bytes")
    count("corpus.fsyncs", fsyncs)
    count("farm.journal_bytes", tracer.counts["farm.journal_bytes"], "bytes")
    waits = [claim[0] - jobs["submitted"][job]
             for job, claim in jobs["claims"].items()
             if job in jobs["submitted"]]
    execs = [jobs["done"][job][0] - claim[0]
             for job, claim in jobs["claims"].items() if job in jobs["done"]]
    seconds("farm.queue_wait_s", statistics.median(waits) if waits else 0.0)
    seconds("farm.exec_s", statistics.median(execs) if execs else 0.0)
    count("farm.retries", result.extra.get("retries", 0))
    count("farm.jobs_failed", result.extra.get("jobs_failed", 0))
    count("dist.claims", tracer.counts["dist.claims"])
    wire = result.extra.get("wire", {})
    count("dist.round_trips", wire.get("round_trips", 0))
    count("dist.bytes_sent", wire.get("bytes_sent", 0), "bytes")
    count("dist.bytes_received", wire.get("bytes_received", 0), "bytes")
    count("dist.reconnects", wire.get("reconnects", 0))
    count("dist.pull_entries_per_s",
          result.mirror_entries / result.mirror_seconds, "entries/s")

    # Accounting: the measured threads' self times against their wall.
    if workload.name == "farm-pdf":
        intervals = [(ident, t0, jobs["done"][job][1])
                     for job, (_, ident, t0) in jobs["claims"].items()
                     if job in jobs["done"]]
        wall = sum(hi - lo for _, lo, hi in intervals)
    else:
        # The calibration loops between waves are the benchmark's own.
        intervals = [(threading.get_ident(),) + tuple(result.region)]
        wall = result.wall_s - result.calibration_s
    idents = {ident for ident, _, _ in intervals}
    covered = sum(tracer.covered(ident, lo, hi)
                  for ident, lo, hi in intervals)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, value in tracer.self_times(idents).items():
        layer_self[name.split(".", 1)[0]] += value
    for layer in LAYERS:
        seconds(f"{layer}.self_s", layer_self[layer])
    seconds("trace.wall_s", wall)
    count("trace.coverage", covered / wall if wall else 0.0, "fraction")
    count("trace.overhead",
          result.step_region_s / baseline.step_region_s - 1.0, "fraction")
    count("trace.spans", tracer.span_count())
    return metrics


def _reference(workload_name, seed, sizes):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)["records"]
    for record in records:
        if (record["workload"] == workload_name and record["seed"] == seed
                and record["units"] == sizes.units
                and record["pool"] == sizes.pool):
            return record
    return None


def check_reference(workload_name, seed, sizes, result):
    from perfbench.workloads import check
    record = _reference(workload_name, seed, sizes)
    if record is None:
        return False
    check(result.new_tests == record["new_tests"],
          f"new_tests {result.new_tests} != recorded {record['new_tests']}")
    check(result.mean_coverage == record["mean_coverage"],
          f"mean_coverage {result.mean_coverage!r} != recorded "
          f"{record['mean_coverage']!r}")
    check(result.entries_digest == record["entries_digest"],
          "the store's entry-hash set differs from the recorded one")
    return True


class _JobClock:
    """Farm hooks: when each job was submitted, claimed and finished."""

    def __init__(self):
        self.claims = {}
        self.done = {}
        self.submitted = {}

    def on_claim(self, job, args, t0, t1):
        if job is not None:
            self.claims[job.job_id] = (time.time(), threading.get_ident(),
                                       t0)
            self.submitted[job.job_id] = job.submitted

    def on_done(self, _, args, t0, t1):
        self.done[args[1]] = (time.time(), t1)

    def as_dict(self):
        return {"claims": self.claims, "done": self.done,
                "submitted": self.submitted}


def measure(workload, seed, sizes, trace, work_dir):
    """Set up, run, check; returns ``(metrics, result, detail)``."""
    from perfbench.calibrate import Calibrator
    from perfbench.tracer import Tracer, layer_targets
    from perfbench.workloads import FsyncCounter
    from repro.nn.instrumentation import PassCounter, PayloadCounter

    fsyncs = FsyncCounter()
    cal = Calibrator()

    def fresh(index):
        path = os.path.join(work_dir, f"setup-{index}")
        state, seconds, _ = cal.measure(
            lambda: workload.setup(path, seed, sizes))
        return state, seconds

    def run_checked(state):
        try:
            result = workload.run(state, cal)
            workload.check(state, result)
        finally:
            workload.teardown(state)
        return result

    with fsyncs.installed():
        if not trace:
            setup_seconds, state = [], None
            for index in range(SETUPS):
                state, elapsed = fresh(index)
                setup_seconds.append(elapsed)
                if index < SETUPS - 1:
                    workload.teardown(state)
            result = run_checked(state)
            metrics, detail = end_to_end(result, setup_seconds)
            return metrics, result, detail
        state, _ = fresh(0)
        baseline = run_checked(state)
        state, _ = fresh(1)
        tracer = Tracer()
        jobs = _JobClock()
        targets = layer_targets(tracer, {
            "farm.queue_s:claim": jobs.on_claim,
            "farm.queue_s:mark_done": jobs.on_done})
        before = fsyncs.count
        try:
            with PassCounter() as passes, PayloadCounter() as payloads, \
                    tracer.installed(targets):
                result = workload.run(state, cal)
            workload.check(state, result)
        finally:
            workload.teardown(state)
        metrics = per_layer(workload, tracer,
                            sorted({t.metric for t in targets}),
                            (passes, payloads, fsyncs.count - before),
                            result, baseline, jobs.as_dict())
        return metrics, result, {
            "untraced_step_region_s": baseline.step_region_s,
            "traced_step_region_s": result.step_region_s}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _configure_environment()
    _import_program()
    from perfbench import stats
    from perfbench.workloads import WORKLOADS, CheckFailed, sizes_for
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; want one of "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    sizes = sizes_for(workload.name, args.seconds)

    build()
    work_dir = os.path.join(BUILD, "runs", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        _emit({"fingerprint": fingerprint(work_dir),
               "workload": workload.name, "seed": args.seed,
               "sizes": vars(sizes), "trace": args.trace})
        try:
            metrics, result, detail = measure(workload, args.seed, sizes,
                                              bool(args.trace), work_dir)
            referenced = check_reference(workload.name, args.seed, sizes,
                                         result)
        except CheckFailed as error:
            print(f"perfbench: output check failed: {error}",
                  file=sys.stderr)
            _emit({"correct": False, "attempted": 1, "failed": 1,
                   "metrics": {}})
            return 1
        _emit({"outputs": {"new_tests": result.new_tests,
                           "mean_coverage": result.mean_coverage,
                           "entries_digest": result.entries_digest,
                           "pending_seeds": result.extra.get("pending"),
                           "reference_checked": referenced},
               "fail_frac": stats.fail_frac(result.attempted, result.failed),
               "detail": detail})
        _emit({"correct": True, "attempted": result.attempted,
               "failed": result.failed, "metrics": metrics})
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

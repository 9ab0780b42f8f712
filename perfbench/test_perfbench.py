"""Tests of the benchmark itself: statistics, span accounting, workloads.

The workload tests run each workload at a tiny size against the
default model cache and compare with the outputs recorded in
``reference.json`` for the default seed (0) and a held-out seed (1).
"""

from __future__ import annotations

import json
import math
import os
import threading

import pytest

from perfbench import run, stats
from perfbench.calibrate import REPEAT, Calibrator
from perfbench.tracer import Target, Tracer
from perfbench.workloads import WORKLOADS, FsyncCounter, RunResult, Sizes

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")

#: Tiny sizes recorded in reference.json.
TINY = {"fuzz-mnist": Sizes(units=2, pool=32),
        "farm-pdf": Sizes(units=4, pool=12, tenants=4),
        "federate-driving": Sizes(units=2, pool=48)}

#: Counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = ("nn.forwards", "nn.forward_samples", "nn.backwards",
                "coverage.updates", "core.payload_builds",
                "corpus.entries_added", "corpus.commits", "corpus.fsyncs",
                "farm.retries", "farm.jobs_failed", "dist.claims",
                "dist.round_trips", "dist.reconnects")


def _benchmark():
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics -----------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile(range(1, 100), 90)     # 9 beyond the 90th
    assert stats.percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        stats.percentile(range(1, 20), 50)


def test_tail_percentile_is_the_highest_supported():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(40) == 75
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(1000) == 99
    summary = stats.summarize([3.0] * 99 + [1.0])
    assert summary == {"n": 100, "median": 3.0, "tail_p": 90, "tail": 3.0}


def test_fail_frac_arithmetic():
    assert stats.fail_frac(10, 0) == 0.0
    assert stats.fail_frac(4, 1) == 0.25
    assert stats.fail_frac(3, 3) == 1.0
    for attempted, failed in ((0, 0), (2, 3), (2, -1)):
        with pytest.raises(ValueError):
            stats.fail_frac(attempted, failed)


def test_failed_job_misses_the_percentile():
    samples = [1.0] * 89 + [math.inf] * 11
    assert stats.percentile(samples, 90) == math.inf


# -- span accounting ------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    with tracer.span("a.outer"):
        clock.now = 2.0
        with tracer.span("b.inner"):
            clock.now = 5.0
            with tracer.span("a.outer"):
                clock.now = 6.0
        clock.now = 10.0
    selfs = tracer.self_times()
    assert selfs == {"a.outer": 7.0, "b.inner": 3.0}
    ident = threading.get_ident()
    assert tracer.covered(ident, 0.0, 10.0) == 10.0
    assert tracer.covered(ident, 1.0, 10.0) == 0.0   # span starts before


def test_self_time_never_subtracts_across_threads():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    started, release = threading.Event(), threading.Event()
    idents = {}

    def server():
        idents["server"] = threading.get_ident()
        with tracer.span("dist.serve"):
            started.set()
            release.wait(10)
            clock.now = 8.0

    with tracer.span("dist.client"):
        idents["client"] = threading.get_ident()
        clock.now = 1.0
        worker = threading.Thread(target=server)
        worker.start()
        started.wait(10)
        release.set()
        worker.join(10)
        assert not worker.is_alive()
        clock.now = 10.0
    assert tracer.self_times({idents["client"]}) == {"dist.client": 10.0}
    assert tracer.self_times({idents["server"]}) == {"dist.serve": 7.0}
    assert tracer.self_times() == {"dist.client": 10.0, "dist.serve": 7.0}


def test_installed_wrappers_are_removed_afterwards():
    class Layer:
        def forward(self, x):
            return x + 1

        @staticmethod
        def helper(x):
            return x * 2

    original = Layer.__dict__["forward"]
    tracer = Tracer()
    seen = []
    targets = [Target(Layer, "forward", "nn.forward_s",
                      inclusive=lambda args: "nn.C1.forward_s",
                      after=lambda result, args, t0, t1: seen.append(result)),
               Target(Layer, "helper", "nn.helper_s"),
               Target(Layer, "gone", "nn.gone_s", optional=True)]
    with tracer.installed(targets):
        assert Layer().forward(1) == 2
        assert Layer.helper(3) == 6
    assert Layer.__dict__["forward"] is original
    assert isinstance(Layer.__dict__["helper"], staticmethod)
    assert seen == [2]
    assert set(tracer.self_times()) == {"nn.forward_s", "nn.helper_s"}
    assert set(tracer.inclusive) == {"nn.C1.forward_s"}
    with pytest.raises(AttributeError):
        with tracer.installed([Target(Layer, "gone", "nn.gone_s")]):
            pass


def test_fsync_counter_counts_and_restores():
    original = os.fsync
    counter = FsyncCounter()
    with counter.installed():
        os.fsync(0)
        os.fsync(0)
    assert counter.count == 2
    assert os.fsync is original


def test_calibration_rescales_by_the_loop():
    ticks = iter(range(100))
    cal = Calibrator(reference=2.0, clock=lambda: float(next(ticks)))
    # Each loop takes one tick, the interval one tick: the host runs
    # at half the reference speed, so one wall second is two.
    result, seconds, wall = cal.measure(lambda: "done")
    assert (result, seconds, wall) == ("done", 2.0, 1.0)
    # One speed sample before the interval and one after, each the
    # mean of REPEAT loops.
    assert cal.spent == 2.0 * REPEAT


def test_end_to_end_reports_every_benchmark_metric():
    result = RunResult(seeds_scheduled=1600, new_tests=640,
                       mean_coverage=0.86,
                       step_seconds=[0.2] * 90 + [0.3] * 10,
                       step_region_s=21.0, remirror_seconds=[0.02] * 20)
    metrics, detail = run.end_to_end(result, [0.5, 0.4, 0.6])
    wanted = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == wanted
    assert metrics["wave_p90_s"]["value"] == 0.2
    assert metrics["setup_s"]["value"] == 0.5
    assert all(v["value"] > 0 for v in metrics.values())
    with pytest.raises(ValueError):
        run.end_to_end(RunResult(step_seconds=[0.2] * 99,
                                 remirror_seconds=[0.02] * 20), [0.5])


# -- workloads ------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Each workload traced twice at the tiny size, seed 0."""
    runs = {}
    for name, sizes in TINY.items():
        runs[name] = []
        for attempt in range(2):
            work_dir = str(tmp_path_factory.mktemp(f"{name}-{attempt}"))
            runs[name].append(run.measure(WORKLOADS[name], 0, sizes, True,
                                          work_dir))
    return runs


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(traced_runs, name):
    metrics, result, _ = traced_runs[name][0]
    wanted = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == wanted
    assert result.failed == 0 and result.attempted > 0
    assert metrics["nn.forwards"]["value"] > 0
    assert metrics["corpus.fsyncs"]["value"] > 0
    # The outermost spans cover the measured threads' wall time.
    assert metrics["trace.coverage"]["value"] > 0.9
    if name == "farm-pdf":
        assert metrics["farm.queue_s"]["value"] > 0
    if name == "federate-driving":
        assert metrics["dist.round_trips"]["value"] > 0
        assert metrics["dist.claims"]["value"] == TINY[name].units


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_exactly(traced_runs, name):
    first, second = (metrics for metrics, _, _ in traced_runs[name])
    for key in EXACT_COUNTS:
        assert first[key]["value"] == second[key]["value"], key


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_matches_recorded_outputs(tmp_path, name, seed):
    workload = WORKLOADS[name]
    cal = Calibrator()
    with FsyncCounter().installed():
        state = workload.setup(str(tmp_path), seed, TINY[name])
        try:
            result = workload.run(state, cal)
            workload.check(state, result)
        finally:
            workload.teardown(state)
    assert result.failed == 0
    assert run.check_reference(name, seed, TINY[name], result)

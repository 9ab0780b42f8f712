"""Span tracing from outside the program: per-layer self time and counts.

:class:`Tracer` wraps public functions of ``src/repro`` at run time
(nothing under ``src/`` changes) and records, per thread, a stack of
open spans.  A span's *self time* is its duration minus the time its
wrapped children took on the same thread, so the self times of one
thread add up to the time its outermost spans cover.  Spans on other
threads never subtract: a server thread answering a client's request
overlaps the client's wait, and both are charged in full to their own
thread.

:func:`layer_targets` names what is wrapped: one metric per layer
boundary from the table in ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "Target", "layer_targets", "member_of"]


def member_of(model_name):
    """Trio member of a zoo model name: ``MNI_C2`` -> ``C2``."""
    return str(model_name).rsplit("_", 1)[-1]


class _ThreadState:
    __slots__ = ("ident", "stack", "self_time", "calls", "top")

    def __init__(self, ident):
        self.ident = ident
        self.stack = []                       # [name, t0, child seconds]
        self.self_time = defaultdict(float)   # metric -> self seconds
        self.calls = Counter()                # metric -> wrapped calls
        self.top = []                         # (t0, t1) of outermost spans


class Target:
    """One function to wrap.

    ``owner`` is a class or module and ``attr`` the attribute holding
    the function.  ``metric`` receives the span's self time;
    ``inclusive(args)`` may name a second metric that receives the
    span's whole duration (per-model breakdowns).  ``after(result,
    args, t0, t1)`` runs after the call, for counts.  ``optional``
    targets are skipped when absent (private helpers a refactor may
    remove); a missing public target is an error.
    """

    def __init__(self, owner, attr, metric, inclusive=None, after=None,
                 optional=False):
        self.owner = owner
        self.attr = attr
        self.metric = metric
        self.inclusive = inclusive
        self.after = after
        self.optional = optional


class Tracer:
    """Collects spans on every thread while its targets are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._threads = []
        self._registry_lock = threading.Lock()
        self.inclusive = defaultdict(float)
        self.counts = Counter()
        self._lock = threading.Lock()

    # -- spans --------------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._registry_lock:
                self._threads.append(state)
        return state

    def _open(self, name):
        state = self._state()
        frame = [name, self.clock(), 0.0]
        state.stack.append(frame)
        return state, frame

    def _close(self, state, frame):
        t1 = self.clock()
        state.stack.pop()
        duration = t1 - frame[1]
        state.self_time[frame[0]] += duration - frame[2]
        state.calls[frame[0]] += 1
        if state.stack:
            state.stack[-1][2] += duration
        else:
            state.top.append((frame[1], t1))
        return t1

    @contextmanager
    def span(self, name):
        """Time the enclosed block as one span named ``name``."""
        state, frame = self._open(name)
        try:
            yield
        finally:
            self._close(state, frame)

    def add_inclusive(self, name, seconds):
        with self._lock:
            self.inclusive[name] += seconds

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn, target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state, frame = tracer._open(target.metric)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = tracer._close(state, frame)
                if target.inclusive is not None:
                    tracer.add_inclusive(target.inclusive(args),
                                         t1 - frame[1])
                if target.after is not None:
                    target.after(result, args, frame[1], t1)
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block.

        Module-level functions are replaced in every loaded ``repro``
        module that imported them by name, so call sites that bound the
        name at import time are traced too.
        """
        undo = []
        try:
            for target in targets:
                undo.extend(self._install(target))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def _install(self, target):
        owner, attr = target.owner, target.attr
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if raw is None:
                if target.optional:
                    return []
                raise AttributeError(f"{owner.__name__}.{attr} is gone")
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(raw.__func__, target))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, target))
            else:
                wrapped = self.wrap(raw, target)
            setattr(owner, attr, wrapped)
            return [(owner, attr, raw)]
        original = getattr(owner, attr, None)
        if original is None:
            if target.optional:
                return []
            raise AttributeError(f"{owner.__name__}.{attr} is gone")
        wrapped = self.wrap(original, target)
        undo = []
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))
        return undo

    # -- results ------------------------------------------------------------
    def threads(self):
        with self._registry_lock:
            return list(self._threads)

    def self_times(self, idents=None):
        """Self seconds per metric, summed over ``idents`` (all threads
        when ``None``)."""
        totals = defaultdict(float)
        for state in self.threads():
            if idents is not None and state.ident not in idents:
                continue
            for name, seconds in state.self_time.items():
                totals[name] += seconds
        return dict(totals)

    def span_count(self):
        return sum(sum(state.calls.values()) for state in self.threads())

    def covered(self, ident, lo, hi):
        """Seconds thread ``ident`` spent inside outermost spans that lie
        within ``[lo, hi]``."""
        total = 0.0
        for state in self.threads():
            if state.ident != ident:
                continue
            for t0, t1 in state.top:
                if t0 >= lo and t1 <= hi:
                    total += t1 - t0
        return total


def layer_targets(tracer, hooks=None):
    """The wrapped boundary of every layer on a workload's path.

    ``hooks`` maps a metric name to an extra ``after`` callback (the
    farm workload uses it to see which claims handed out a job).
    """
    from repro.core import campaign, constraints, engine, objectives, oracle
    from repro.corpus import scheduler, session, store
    from repro.coverage import neuron
    from repro.dist import shards, sync
    from repro.farm import daemon, locks, queue
    from repro.nn import conv, dense, network, pool, tape

    hooks = hooks or {}

    def model_metric(kind):
        def name(args):
            model = args[0]
            net = getattr(model, "network", model)
            return f"nn.{member_of(net.name)}.{kind}_s"
        return name

    def chain(*callbacks):
        callbacks = [c for c in callbacks if c is not None]
        if not callbacks:
            return None

        def after(result, args, t0, t1):
            for callback in callbacks:
                callback(result, args, t0, t1)
        return after

    def count_added(result, args, t0, t1):
        if result is not None and result[1]:
            tracer.count("corpus.entries_added")

    def count_commit(result, args, t0, t1):
        tracer.count("corpus.commits")
        path = args[0].checkpoint_path
        if os.path.exists(path):
            tracer.count("corpus.checkpoint_bytes", os.path.getsize(path))

    def count_journal(result, args, t0, t1):
        path = args[0].journal_path
        if os.path.exists(path):
            tracer.count("farm.journal_bytes", os.path.getsize(path))

    def count_claim(result, args, t0, t1):
        if result is not None:
            tracer.count("dist.claims")

    def count_update(result, args, t0, t1):
        tracer.count("coverage.updates")

    targets = []

    def add(owner, attrs, metric, inclusive=None, after=None,
            optional=False):
        for attr in attrs:
            targets.append(Target(owner, attr, metric, inclusive=inclusive,
                                  after=chain(after, hooks.get(
                                      f"{metric}:{attr}")),
                                  optional=optional))

    # nn
    add(network.Network, ["run"], "nn.forward_s",
        inclusive=model_metric("forward"))
    add(tape.ForwardPass, ["gradient_joint", "gradient_of_output",
                           "gradient_of_neuron"], "nn.backward_s",
        inclusive=model_metric("backward"))
    add(conv.Conv2D, ["forward", "backward"], "nn.conv_s")
    add(dense.Dense, ["forward", "backward"], "nn.dense_s")
    for cls in (pool.MaxPool2D, pool.AvgPool2D, pool.GlobalAvgPool2D):
        add(cls, ["forward", "backward"], "nn.pool_s")
    # coverage
    add(neuron.NeuronCoverageTracker, ["update_from_tape"],
        "coverage.update_s", after=count_update)
    add(objectives.CoverageObjective, ["pick"], "coverage.pick_s")
    add(neuron.NeuronCoverageTracker, ["merge"], "coverage.merge_s")
    add(neuron, ["merge_state_dicts"], "coverage.merge_s")
    # core
    add(engine.AscentEngine, ["run"], "core.engine_self_s")
    for cls in _subclasses(constraints.Constraint):
        add(cls, [a for a in ("setup", "apply", "project")
                  if a in cls.__dict__], "core.constraint_s")
    for cls in (oracle.ClassificationOracle, oracle.RegressionOracle):
        add(cls, ["differs_from_outputs", "predictions_from_outputs"],
            "core.oracle_s")
    add(campaign.Campaign, ["run", "execute_shard"], "core.campaign_self_s")
    add(campaign, ["payload_digest"], "core.spec_digest_s")
    # corpus
    add(store.CorpusStore, ["__init__"], "corpus.open_s")
    add(session.FuzzSession, ["__init__"], "corpus.session_open_s")
    add(session.FuzzSession, ["run"], "corpus.session_self_s")
    add(store.CorpusStore, ["add_entry"], "corpus.add_entry_s",
        after=count_added)
    add(store.CorpusStore, ["commit"], "corpus.commit_s",
        after=count_commit)
    add(scheduler.SeedScheduler, ["add", "next_wave", "record_wave",
                                  "state_dict", "from_state", "stats",
                                  "pending_count"], "corpus.scheduler_s")
    add(store.CorpusStore, ["load_inputs", "load_input"],
        "corpus.load_inputs_s")
    add(store.CorpusStore, ["snapshot"], "corpus.snapshot_s")
    # farm
    add(queue.JobQueue, ["submit", "claim", "mark_done", "mark_failed",
                         "release"], "farm.queue_s", after=count_journal)
    add(locks.StoreLock, ["acquire", "release"], "farm.lock_s")
    # dist
    add(shards.ShardLedger, ["ensure", "mark_done", "write_result",
                             "load_result", "load_results", "all_done",
                             "counts"], "dist.ledger_s")
    add(shards.ShardLedger, ["claim"], "dist.ledger_s", after=count_claim)
    add(shards.LedgerShardRunner, ["__call__"], "dist.barrier_wait_s")
    add(shards.LedgerShardRunner, ["_affinity"], "dist.affinity_s",
        optional=True)
    add(sync, ["pull"], "dist.pull_s")
    for cls in (sync.RemoteSource, sync.LocalSource):
        add(cls, ["manifest"], "dist.manifest_s")
        add(cls, ["fetch", "fetch_many"], "dist.fetch_s")
    add(daemon.FarmDaemon, ["store_manifest", "store_entries",
                            "store_entry"], "dist.serve_s")
    return targets


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return [cls] + [c for c in found if c is not cls]

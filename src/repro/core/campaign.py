"""Sharded generation campaigns: multi-process seed-corpus fan-out.

A :class:`Campaign` splits a seed corpus into fixed-size shards, runs
the vectorized :class:`~repro.core.engine.AscentEngine` on each shard —
in engine processes when ``workers > 1``, under any
:class:`~repro.core.engine.AscentRule` — and merges the per-shard
results into one :class:`~repro.core.engine.GenerationResult` plus one
merged
coverage tracker per model.  This is the scale-out layer the stateless
``Network``/``ForwardPass`` substrate was built for: workers share
nothing, so a campaign is embarrassingly parallel across shards.

Determinism (see docs/ARCHITECTURE.md for the full rules):

* **Sharding** depends only on the corpus and ``shard_size`` —
  contiguous chunks in seed order — never on ``workers``.
* **Randomness** per shard comes from
  :func:`repro.utils.rng.spawn_seed_sequences`: shard *i* draws the same
  stream whether it runs first on one worker or last on eight.
* **Merging** is order-independent: tests carry global seed indices and
  are re-ordered by them, coverage masks OR-combine.

Together these make ``workers=N`` produce bit-identical tests and
coverage to ``workers=1`` under the same seed, which
``tests/core/test_campaign.py`` pins and
``benchmarks/test_campaign_throughput.py`` times.

Engine processes never retrain or touch the weight cache: models travel
once, as architecture+weights payloads
(:func:`repro.nn.config.network_to_payload`), each task carries the
campaign's static spec and its shard, and coverage comes back as plain
``state_dict()`` masks, so the only things crossing process boundaries
are picklable objects and dicts of numpy arrays.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait

import numpy as np

from repro.core.config import Hyperparams
from repro.core.constraints import Constraint, Unconstrained
from repro.core.engine import (AscentEngine, AscentRule, GenerationResult,
                               VanillaRule)
from repro.coverage import NeuronCoverageTracker
from repro.errors import ConfigError
from repro.nn.config import network_from_payload, network_to_payload
from repro.nn.instrumentation import (PassCounter, PayloadCounter,
                                      record_counts)
from repro.utils.rng import rng_from_seed_sequence, spawn_seed_sequences

__all__ = ["Campaign", "CampaignPool", "CampaignShard", "EngineProcessError",
           "shard_corpus", "payload_digest", "DEFAULT_SHARD_SIZE"]

#: Default seeds per shard.  Independent of ``workers`` on purpose: the
#: shard layout (and therefore every random draw) must not change when a
#: campaign is re-run with a different degree of parallelism.
DEFAULT_SHARD_SIZE = 16


@dataclass(frozen=True)
class CampaignShard:
    """One unit of campaign work: a seed slice plus its random stream."""

    shard_index: int
    indices: np.ndarray          # global seed indices of this slice
    seeds: np.ndarray            # the seed inputs themselves
    seed_seq: np.random.SeedSequence
    scales: np.ndarray = None    # per-seed step scales (None: all 1)


def shard_corpus(seeds, shard_size=DEFAULT_SHARD_SIZE, seed=0,
                 seed_scales=None):
    """Split a seed corpus into deterministic contiguous shards.

    Shard boundaries depend only on the corpus length and ``shard_size``;
    each shard gets a spawned child of ``seed``'s SeedSequence.  The
    returned shards are self-contained (they carry their global indices
    and, when given, their slice of the per-seed step scales), so any
    subset can be executed anywhere and merged later.

    Edge cases are part of the contract (pinned in
    ``tests/core/test_campaign.py``): an empty corpus yields zero shards
    (and a campaign over it a clean empty result), and
    ``shard_size > len(corpus)`` yields exactly one shard holding the
    whole corpus.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if shard_size < 1:
        raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
    n = seeds.shape[0]
    if seed_scales is not None:
        seed_scales = np.asarray(seed_scales, dtype=np.float64)
        if seed_scales.shape != (n,):
            raise ConfigError(
                f"need one seed scale per seed; got shape "
                f"{seed_scales.shape} for {n} seed(s)")
    bounds = list(range(0, n, int(shard_size)))
    seqs = spawn_seed_sequences(seed, len(bounds))
    shards = []
    for shard_index, start in enumerate(bounds):
        stop = min(start + int(shard_size), n)
        shards.append(CampaignShard(
            shard_index=shard_index,
            indices=np.arange(start, stop),
            seeds=seeds[start:stop].copy(),
            seed_seq=seqs[shard_index],
            scales=(None if seed_scales is None
                    else seed_scales[start:stop].copy())))
    return shards


# -- worker side ----------------------------------------------------------------
# A shard runs on models its caller already holds: the campaign's own
# (in-process) or the copies an engine process rebuilt once, when it
# started.  Each task carries the campaign's static spec beside the
# dynamic state (the caller's tracker snapshots plus the shard itself),
# so one engine process serves every campaign over its models, whatever
# their rule, constraint or hyperparameters.

#: Seconds :meth:`CampaignPool.close` waits for an engine process to
#: exit before killing it.
_JOIN_TIMEOUT = 10.0


def payload_digest(payload):
    """Content digest of a model payload (architecture JSON + weights).

    Computed from the payload's actual bytes — not object identity — so
    it names exactly the weights a pool's engine processes rebuilt
    (:attr:`CampaignPool.identity`).
    """
    import json
    digest = hashlib.sha256()
    digest.update(json.dumps(payload["config"],
                             sort_keys=True).encode("utf-8"))
    for key in sorted(payload["state"]):
        array = np.ascontiguousarray(payload["state"][key])
        digest.update(key.encode("utf-8"))
        digest.update(repr((array.shape, str(array.dtype))).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _run_shard(models, spec, tracker_states, shard):
    """Run one shard through the ascent engine; returns a picklable dict.

    ``spec`` is the campaign's static configuration
    (:meth:`Campaign._spec`).  Worker trackers start from the driver's
    coverage state (``tracker_states``), so the coverage objective
    steers ascent toward neurons *genuinely* still uncovered — a
    campaign resumed over persisted coverage (``generate --resume``,
    fuzz waves) must not chase neurons earlier runs already lit up.
    The merge back into the driver is an OR, so seeding every shard
    with the same prior loses nothing and double-counts nothing.
    Generated tests are rewritten to carry their *global* seed index
    before leaving the worker.
    """
    trackers = [NeuronCoverageTracker.from_state(m, s)
                for m, s in zip(models, tracker_states)]
    engine = AscentEngine(
        models, spec["hp"], spec["constraint"].clone(), task=spec["task"],
        trackers=trackers, rng=rng_from_seed_sequence(shard.seed_seq),
        rule=spec["rule"].clone())
    result = engine.run(shard.seeds, seed_scales=shard.scales)
    for test in result.tests:
        test.seed_index = int(shard.indices[test.seed_index])
    return {"shard_index": shard.shard_index,
            "result": result,
            "coverage": [t.state_dict() for t in trackers]}


def _engine_main(conn):
    """An engine process: rebuild the models from the payloads that
    arrive first on ``conn``, then run one shard per message until the
    parent's end of ``conn`` closes.

    The first message sent back reports the rebuilds, and each reply the
    shard's passes, for the parent's counters.  SIGINT is ignored: a
    terminal's Ctrl-C reaches the whole process group, and the parent
    decides when its engines stop (a draining farm finishes the wave in
    flight).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        with PayloadCounter() as rebuilds:
            models = [network_from_payload(p) for p in conn.recv()]
        conn.send(rebuilds.counts())
        while True:
            spec, tracker_states, shard = conn.recv()
            with PassCounter() as passes:
                try:
                    reply = (_run_shard(models, spec, tracker_states, shard),
                             None)
                except Exception as error:  # noqa: BLE001 — the caller
                    reply = (None, error)   # re-raises it
            conn.send(reply + (passes.counts(),))
    except (EOFError, OSError):
        return              # the parent closed its end, or died


class EngineProcessError(RuntimeError):
    """An engine process died while its pool needed it.

    Not a :class:`~repro.errors.ReproError`: nothing was wrong with the
    shards, and a fresh pool runs them, so a caller that retries (the
    farm queue does) should.
    """


class CampaignPool:
    """Engine processes that run campaign shards over one set of models.

    Built with :meth:`Campaign.make_pool` (or from the models directly)
    and passed as ``shard_runner`` to any number of :meth:`Campaign.run`
    calls whose campaigns hold the same model objects.  The processes
    start on the first call, with the ``spawn`` method (a fresh
    interpreter, never a fork of a threaded one), rebuild the models
    from their payloads once and keep them until :meth:`close`.  Each
    task carries its campaign's static spec (hyperparameters,
    constraint, rule, task), so campaigns under any rule or constraint
    share a pool, and a pooled run is bit-identical to an in-process
    one.  One caller at a time.

    The pool checks that a campaign's models are the very objects it
    was built from, not their contents: it assumes its models are not
    retrained in place (nothing in the repo does that).  ``identity`` is
    their content digest, taken once when the pool is made.

    Each process talks over its own duplex pipe, and only that process
    holds the pipe's other end.  So a process that dies makes its pipe
    read as closed, and the call raises :class:`EngineProcessError`
    naming the exit code instead of waiting forever; and when the
    parent dies, even by SIGKILL, each process reads end-of-file and
    exits, after at most the shard it is running.  A call that raises
    anything but a shard's own error closes the pool.
    """

    def __init__(self, models, workers):
        if workers < 1:
            raise ConfigError(
                f"CampaignPool needs workers >= 1, got {workers}")
        self.models = list(models)
        self.workers = int(workers)
        self._payloads = [network_to_payload(m) for m in self.models]
        self.identity = hashlib.sha256("|".join(
            payload_digest(p) for p in self._payloads).encode(
                "utf-8")).hexdigest()
        self._engines = []          # (process, connection), once started
        self._closed = False

    @property
    def closed(self):
        return self._closed

    def serves(self, models):
        """Whether ``models`` are the objects this pool was built from."""
        models = list(models)
        return len(models) == len(self.models) and all(
            a is b for a, b in zip(models, self.models))

    def __call__(self, campaign, tracker_states, shards):
        if self._closed:
            raise ConfigError("CampaignPool is closed")
        if not self.serves(campaign.models):
            raise ConfigError(
                "CampaignPool was built for other model objects; make a "
                "pool for these with Campaign.make_pool()")
        try:
            if not self._engines:
                self._start()
            outcomes, error = self._map(campaign._spec(), tracker_states,
                                        shards)
        except BaseException:
            self._stop(kill=True)
            raise
        if error is not None:
            raise error
        return outcomes

    def _start(self):
        # The payloads go over the pipe, not as process arguments:
        # ``start()`` writes those into a pipe it also holds the read
        # end of, so a child that died before reading them all would
        # block it forever.
        ctx = multiprocessing.get_context("spawn")
        for _ in range(self.workers):
            conn, child_conn = ctx.Pipe()
            process = ctx.Process(target=_engine_main, args=(child_conn,),
                                  name="repro-engine", daemon=True)
            process.start()
            child_conn.close()
            self._engines.append((process, conn))
        for engine in self._engines:
            self._send(engine, self._payloads)
        self._payloads = None
        for engine in self._engines:
            record_counts(self._receive(engine))

    @staticmethod
    def _send(engine, message):
        try:
            engine[1].send(message)
        except OSError:
            pass            # its process is gone; the next read says how

    def _receive(self, engine):
        process, conn = engine
        try:
            return conn.recv()
        except (EOFError, OSError):
            process.join(_JOIN_TIMEOUT)
            raise EngineProcessError(
                f"engine process {process.pid} exited with code "
                f"{process.exitcode}") from None

    def _map(self, spec, tracker_states, shards):
        """Run every shard on the engines; returns ``(outcomes, error)``,
        ``error`` being the first exception a shard raised.  The shards
        already in flight still finish, so every engine is idle again
        when this returns."""
        pending = list(shards)[::-1]
        idle = list(self._engines)
        busy = {}
        outcomes, error = [], None
        while busy or (pending and error is None):
            while idle and pending and error is None:
                engine = idle.pop()
                self._send(engine, (spec, tracker_states, pending.pop()))
                busy[engine[1]] = engine
            for conn in wait(list(busy)):
                engine = busy.pop(conn)
                outcome, raised, counts = self._receive(engine)
                record_counts(counts)
                idle.append(engine)
                if raised is None:
                    outcomes.append(outcome)
                elif error is None:
                    error = raised
        return outcomes, error

    def close(self):
        """Stop the engine processes (each exits on its pipe's end of
        file) and join them."""
        self._stop(kill=False)

    def _stop(self, kill):
        self._closed = True
        engines, self._engines = self._engines, []
        for process, conn in engines:
            conn.close()
            if kill:
                process.kill()
        for process, _ in engines:
            process.join(_JOIN_TIMEOUT)
            if process.is_alive():
                process.kill()
                process.join()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


# -- driver side ----------------------------------------------------------------
class Campaign:
    """Sharded, optionally multi-process DeepXplore campaign runner.

    Parameters
    ----------
    models:
        Two or more trained networks (as for the other engines).
    hyperparams, constraint, task, trackers:
        As in :class:`~repro.core.DeepXplore`.  Trackers passed in keep
        any coverage they already hold; shard workers *start from* that
        coverage (so the coverage objective targets genuinely uncovered
        neurons) and shard results merge back into them.  Each shard's
        engine folds the final tapes of exhausted seeds into coverage as
        well as those of difference-inducing inputs, the reproduction's
        one departure from Algorithm 1's accounting.
    workers:
        Engine processes.  ``1`` runs shards in-process on ``models``
        (through the same ``_run_shard`` engine processes call);
        ``N > 1`` fans out over a :class:`CampaignPool`.
    shard_size:
        Seeds per shard.  Part of the campaign's deterministic identity —
        changing it changes the random streams; changing ``workers``
        does not.
    seed:
        Root of the campaign's SeedSequence tree.
    rule:
        The :class:`~repro.core.engine.AscentRule` every shard ascends
        under (each shard gets its own clone, so per-seed rule state
        never crosses shard boundaries); defaults to the vanilla rule.
        Like ``shard_size``, part of the deterministic identity.
    """

    def __init__(self, models, hyperparams=None, constraint=None,
                 task="classification", trackers=None, workers=1,
                 shard_size=DEFAULT_SHARD_SIZE, seed=0, rule=None):
        if len(models) < 2:
            raise ConfigError("differential testing needs >= 2 models")
        self.models = list(models)
        self.hp = hyperparams or Hyperparams()
        self.constraint = constraint or Unconstrained()
        if not isinstance(self.constraint, Constraint):
            raise ConfigError("constraint must be a Constraint instance")
        self.task = task
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        if shard_size < 1:
            raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
        self.shard_size = int(shard_size)
        self.seed = seed
        self.rule = rule if rule is not None else VanillaRule()
        if not isinstance(self.rule, AscentRule):
            raise ConfigError("rule must be an AscentRule instance")
        if trackers is None:
            trackers = [NeuronCoverageTracker(m, threshold=self.hp.threshold)
                        for m in self.models]
        if len(trackers) != len(self.models):
            raise ConfigError("need exactly one tracker per model")
        self.trackers = list(trackers)

    def _spec(self):
        """The static shard configuration: everything a shard needs
        besides the models and the per-wave dynamic state."""
        return {
            "hp": self.hp,
            "constraint": self.constraint,
            "task": self.task,
            "rule": self.rule,
        }

    def make_pool(self):
        """Build a :class:`CampaignPool` of ``workers`` engine processes,
        reusable by any later campaign over the same model objects."""
        return CampaignPool(self.models, self.workers)

    def execute_shard(self, tracker_states, shard):
        """Run exactly one shard in-process on this campaign's models.

        The escape hatch the distribution layer (``repro.dist``) builds
        on: this is the same ``_run_shard`` engine processes execute, so
        a shard's outcome is bit-identical whether it ran here, in a
        pool's engine process, or on another host that rebuilt the
        campaign from the same models and seed.
        """
        return _run_shard(self.models, self._spec(), tracker_states, shard)

    def run(self, seeds, seed_scales=None, shard_runner=None):
        """Shard ``seeds``, fan out, merge; returns a GenerationResult.

        ``result.elapsed`` is the campaign's wall-clock (not the sum of
        per-shard compute); each test's own ``elapsed`` is relative to
        its shard's start.  ``seed_scales`` (one float per seed, for
        rules that honour per-seed step scaling) shards contiguously
        alongside the seeds, so scaling is worker-count invariant.

        ``shard_runner`` overrides shard *placement*: a callable
        ``(campaign, tracker_states, shards) -> outcomes`` returning one
        ``_run_shard``-shaped dict per shard, in any order.  A
        :class:`CampaignPool` (from :meth:`make_pool`) is one, reusing
        its engine processes across calls; the distribution layer's
        ``repro.dist.shards.LedgerShardRunner`` splits shards across
        hosts that share a campaign directory.  A runner may only
        change where shards run, never what they compute, because the
        merge below is order-independent.
        """
        if seed_scales is not None and not self.rule.accepts_seed_scales:
            raise ConfigError(
                f"the {self.rule.name} rule does not accept per-seed "
                "step scales")
        start = time.perf_counter()
        shards = shard_corpus(seeds, self.shard_size, seed=self.seed,
                              seed_scales=seed_scales)
        tracker_states = [t.state_dict() for t in self.trackers]
        if shard_runner is not None:
            outcomes = shard_runner(self, tracker_states, shards)
        elif self.workers == 1 or len(shards) <= 1:
            outcomes = [self.execute_shard(tracker_states, shard)
                        for shard in shards]
        else:
            with CampaignPool(self.models,
                              min(self.workers, len(shards))) as pool:
                outcomes = pool(self, tracker_states, shards)
        merged = GenerationResult()
        for outcome in sorted(outcomes, key=lambda o: o["shard_index"]):
            merged.merge(outcome["result"])
            for tracker, state in zip(self.trackers, outcome["coverage"]):
                tracker.merge(state)
        merged.elapsed = time.perf_counter() - start
        merged.coverage = {m.name: t.coverage()
                           for m, t in zip(self.models, self.trackers)}
        return merged

    def mean_coverage(self):
        """Mean neuron coverage across the tested models."""
        return float(np.mean([t.coverage() for t in self.trackers]))

"""Sharded generation campaigns: multi-process seed-corpus fan-out.

A :class:`Campaign` splits a seed corpus into fixed-size shards, runs
the vectorized :class:`~repro.core.engine.AscentEngine` on each shard —
in worker processes when ``workers > 1``, under any
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

Worker processes never retrain or touch the weight cache: models travel
as architecture+weights payloads
(:func:`repro.nn.config.network_to_payload`) and coverage comes back as
plain ``state_dict()`` masks, so the only things crossing process
boundaries are picklable dicts of numpy arrays.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import Hyperparams
from repro.core.constraints import Constraint, Unconstrained
from repro.core.engine import (AscentEngine, AscentRule, GenerationResult,
                               VanillaRule)
from repro.coverage import NeuronCoverageTracker
from repro.errors import ConfigError
from repro.nn.config import network_from_payload, network_to_payload
from repro.utils.rng import rng_from_seed_sequence, spawn_seed_sequences

__all__ = ["Campaign", "CampaignPool", "CampaignShard", "shard_corpus",
           "payload_digest", "DEFAULT_SHARD_SIZE"]

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
# (in-process) or the copies a pool worker process rebuilt once at
# startup.  Per-shard tasks carry only the dynamic state (the driver's
# tracker snapshots plus the shard itself).

#: A pool worker's models and spec, set once per process by
#: :func:`_init_worker`.  A worker process runs one task at a time, so a
#: plain module dict is all the state it needs.
_WORKER = {}


def payload_digest(payload):
    """Content digest of a model payload (architecture JSON + weights).

    Computed from the payload's actual bytes — not object identity — so
    a pool accepts a campaign exactly when its models are bit-identical
    to the ones the pool's workers rebuilt.
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


def _init_worker(spec, payloads):
    """Pool-worker setup: keep the spec, rebuild the models once."""
    _WORKER["spec"] = spec
    _WORKER["models"] = [network_from_payload(p) for p in payloads]


def _pool_task(task):
    tracker_states, shard = task
    return _run_shard(_WORKER["models"], _WORKER["spec"], tracker_states,
                      shard)


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


def _pool_identity(campaign, payloads):
    """What a pool's workers hold: model contents plus static config."""
    parts = [payload_digest(payload) for payload in payloads]
    parts.append(campaign.rule.identity())
    parts.append(type(campaign.constraint).__name__)
    parts.append(str(campaign.task))
    parts.append(repr(campaign.hp))
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


class CampaignPool:
    """A worker-process shard runner pinned to one campaign's identity.

    Built via :meth:`Campaign.make_pool` and passed as ``shard_runner``
    to any number of :meth:`Campaign.run` calls whose identity (models,
    hyperparams, constraint kind, rule, task) matches.  Each worker
    process rebuilds the models from their payloads once, when it
    starts, and keeps them for the pool's lifetime.  Throughput-only: a
    pooled run is bit-identical to a fresh per-run pool (and to
    ``workers=1``).
    """

    def __init__(self, campaign, workers, mp_start_method=None):
        if workers < 2:
            raise ConfigError(
                f"CampaignPool needs workers >= 2, got {workers} "
                "(workers=1 runs in-process and needs no pool)")
        self.workers = int(workers)
        payloads = [network_to_payload(m) for m in campaign.models]
        self.identity = _pool_identity(campaign, payloads)
        ctx = multiprocessing.get_context(mp_start_method)
        self._pool = ctx.Pool(self.workers, initializer=_init_worker,
                              initargs=(campaign._spec(), payloads))
        self._closed = False

    def __call__(self, campaign, tracker_states, shards):
        if self._closed:
            raise ConfigError("CampaignPool is closed")
        payloads = [network_to_payload(m) for m in campaign.models]
        if _pool_identity(campaign, payloads) != self.identity:
            raise ConfigError(
                "CampaignPool was built for a different campaign "
                "identity (models/rule/constraint/hyperparams); "
                "make a fresh pool with Campaign.make_pool()")
        return self._pool.map(_pool_task,
                              [(tracker_states, shard) for shard in shards])

    def close(self):
        if not self._closed:
            self._closed = True
            self._pool.close()
            self._pool.join()

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
        Worker processes.  ``1`` runs shards in-process on ``models``
        (through the same ``_run_shard`` pool workers call); ``N > 1``
        fans out over a process pool.
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
    mp_start_method:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``);
        defaults to the platform default.
    """

    def __init__(self, models, hyperparams=None, constraint=None,
                 task="classification", trackers=None, workers=1,
                 shard_size=DEFAULT_SHARD_SIZE, seed=0, rule=None,
                 mp_start_method=None):
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
        self.mp_start_method = mp_start_method

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
        """Build a :class:`CampaignPool` reusable across this campaign's
        waves (and any later campaign with the same static identity)."""
        return CampaignPool(self, self.workers,
                            mp_start_method=self.mp_start_method)

    def execute_shard(self, tracker_states, shard):
        """Run exactly one shard in-process on this campaign's models.

        The escape hatch the distribution layer (``repro.dist``) builds
        on: this is the same ``_run_shard`` pool workers execute, so a
        shard's outcome is bit-identical whether it ran here, in a local
        pool worker, or on another host that rebuilt the campaign from
        the same models and seed.
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
        its worker processes across calls; the distribution layer's
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
            with CampaignPool(self, min(self.workers, len(shards)),
                              mp_start_method=self.mp_start_method) as pool:
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

"""Resumable coverage-guided fuzzing sessions.

A :class:`FuzzSession` runs the existing :class:`~repro.core.Campaign`
engine in *waves* over a persistent :class:`~repro.corpus.CorpusStore`:

    schedule wave → run campaign → absorb tests + coverage → checkpoint

Every wave commits atomically (tests are content-addressed and
idempotent; coverage snapshots flip with the checkpoint), so a session
killed at any instant — including mid-wave — resumes bit-identically:
the interrupted wave simply re-runs from the last commit, regenerates
the same tests (same trackers, same spawned RNG stream), and the
idempotent absorb converges to exactly the uninterrupted store.

Determinism identity (``ConfigError`` to change on resume): the root
``seed``, ``wave_size``, ``shard_size``, the constraint kind, the
ascent rule (``rule.identity()``, e.g. ``momentum(beta=0.9)``), the
models' dtype, and the store's config fingerprint (model names,
coverage threshold, task).  Every wave folds exhausted seeds' final
tapes into coverage, as the engine always does (the reproduction's one
departure from Algorithm 1's accounting); the identity records that
folding as a constant, so a store written under the paper's accounting
is refused.
``workers`` is throughput only, exactly as for campaigns: a wave is a
campaign, and campaigns are worker-count invariant.  Corpora written
before rules existed resume as ``vanilla``.

Round *i* always draws the *i*-th spawned child of the root seed
(:func:`repro.utils.rng.spawn_seed_sequences` children depend on
position only), so "run 4 rounds" and "run 2 rounds, get killed, resume
to 4" execute identical randomness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.campaign import Campaign, DEFAULT_SHARD_SIZE
from repro.core.config import Hyperparams
from repro.core.constraints import Unconstrained
from repro.core.engine import AscentRule, VanillaRule
from repro.corpus.scheduler import SeedScheduler
from repro.corpus.store import CorpusStore, corpus_fingerprint
from repro.coverage import NeuronCoverageTracker
from repro.errors import ConfigError
from repro.extensions.seed_selection import select_seeds
from repro.utils.rng import spawn_seed_sequences

__all__ = ["FuzzSession", "FuzzReport"]

FUZZ_STATE_VERSION = 1


@dataclass
class FuzzReport:
    """What one :meth:`FuzzSession.run` call did."""

    completed_rounds: int = 0            # total rounds the corpus has seen
    waves: list = field(default_factory=list)   # per-wave stat dicts
    elapsed: float = 0.0

    @property
    def waves_run(self):
        return len(self.waves)

    @property
    def new_tests(self):
        return sum(w["new_tests"] for w in self.waves)

    @property
    def seeds_fuzzed(self):
        return sum(w["wave_size"] for w in self.waves)

    def render(self):
        lines = [f"{'round':>5} {'wave':>5} {'yield':>5} {'new':>5} "
                 f"{'novel%':>7} {'pending':>7}"]
        for w in self.waves:
            lines.append(
                f"{w['round']:>5} {w['wave_size']:>5} {w['yielded']:>5} "
                f"{w['new_tests']:>5} {100 * w['novelty']:>6.2f}% "
                f"{w['pending']:>7}")
        lines.append(f"{self.waves_run} wave(s), {self.new_tests} new "
                     f"test(s) in {self.elapsed:.1f}s")
        return "\n".join(lines)


class FuzzSession:
    """Resumable, coverage-guided fuzzing loop over a corpus store.

    Parameters
    ----------
    store:
        A :class:`CorpusStore` or a directory path (created if absent).
    models, hyperparams, constraint, task:
        As for :class:`~repro.core.Campaign`.
    wave_size, shard_size, seed, rule:
        The session's deterministic identity (with the constraint kind);
        persisted in the store and validated on resume.  ``rule`` is the
        :class:`~repro.core.engine.AscentRule` every wave's campaign
        ascends under (default vanilla).
    workers:
        Campaign fan-out; changing it never changes results.
    dataset, seed_strategy, initial_seed_count, initial_seeds:
        Where the first seed pool comes from when the store is empty:
        either an explicit ``initial_seeds`` array, or
        ``initial_seed_count`` seeds drawn from ``dataset`` by
        ``seed_strategy`` (:func:`repro.extensions.seed_selection.
        select_seeds`) under a root-derived RNG.  On resume these are
        ignored — unless the previous session died mid-draw, in which
        case the same source is needed to finish the (deterministic,
        idempotent) draw.
    """

    def __init__(self, store, models, hyperparams=None, constraint=None,
                 task="classification", wave_size=16, workers=1,
                 shard_size=DEFAULT_SHARD_SIZE, seed=0, rule=None,
                 dataset=None,
                 seed_strategy="random", initial_seed_count=64,
                 initial_seeds=None):
        self.store = store if isinstance(store, CorpusStore) \
            else CorpusStore(store)
        if len(models) < 2:
            raise ConfigError("differential testing needs >= 2 models")
        self.models = list(models)
        self.hp = hyperparams or Hyperparams()
        self.constraint = constraint or Unconstrained()
        self.task = task
        if wave_size < 1:
            raise ConfigError(f"wave_size must be >= 1, got {wave_size}")
        self.wave_size = int(wave_size)
        self.workers = int(workers)
        self.shard_size = int(shard_size)
        self.seed = int(seed)
        self.rule = rule if rule is not None else VanillaRule()
        if not isinstance(self.rule, AscentRule):
            raise ConfigError("rule must be an AscentRule instance")

        self.store.bind_config(
            corpus_fingerprint(self.models, self.hp, self.task))
        self.trackers = [NeuronCoverageTracker(m, threshold=self.hp.threshold)
                         for m in self.models]
        persisted = self.store.coverage_states()
        for model, tracker in zip(self.models, self.trackers):
            if model.name in persisted:
                tracker.load_state_dict(persisted[model.name])

        state = self.store.fuzz_state()
        pool_incomplete = (state is not None
                           and not state.get("pool_complete", True))
        if state is not None:
            self._check_identity(state)
            self.completed_rounds = int(state["completed_rounds"])
            self.scheduler = SeedScheduler.from_state(state["scheduler"])
            if pool_incomplete:
                self._resume_pool_draw(state, dataset, seed_strategy,
                                       initial_seed_count, initial_seeds)
        else:
            self.completed_rounds = 0
            self.scheduler = SeedScheduler()
            if (not self.store.entries(kind="seed")
                    and (dataset is not None or initial_seeds is not None)):
                # Mark the draw BEFORE the first seed hits the disk: a
                # kill mid-draw must resume as "finish the draw", not be
                # mistaken for a complete (smaller) pool.
                self._commit(0, pool_complete=False,
                             pool_strategy=seed_strategy,
                             pool_count=int(initial_seed_count))
                self._draw_initial_pool(dataset, seed_strategy,
                                        initial_seed_count, initial_seeds)
        self._register_entries()
        if len(self.scheduler) == 0:
            raise ConfigError(
                "corpus is empty and no dataset/initial_seeds were given "
                "to draw a first seed pool from")
        if state is None or pool_incomplete:
            self._commit(self.completed_rounds)

    # -- identity -----------------------------------------------------------
    def _identity(self):
        return {
            "version": FUZZ_STATE_VERSION,
            "root_seed": self.seed,
            "wave_size": self.wave_size,
            "shard_size": self.shard_size,
            "constraint": type(self.constraint).__name__,
            "ascent": self.rule.identity(),
            # Exhausted-tape folding is unconditional; the constant keeps
            # stores written under the paper's accounting from resuming.
            "absorb_exhausted": True,
            "dtype": str(np.dtype(self.models[0].dtype)),
        }

    def _check_identity(self, state):
        identity = self._identity()
        # Corpora written before ascent rules / exhausted-tape folding /
        # the dtype policy existed carry none of these keys; they resume
        # under the historical defaults (everything ran at float64).
        legacy = {"ascent": VanillaRule().identity(),
                  "absorb_exhausted": True,
                  "dtype": "float64"}
        stored = {key: state.get(key, legacy.get(key)) for key in identity}
        if stored != identity:
            raise ConfigError(
                f"cannot resume fuzz session: corpus was built with "
                f"{stored!r}, this session asks for {identity!r} — these "
                f"parameters are the run's deterministic identity")

    def _register_entries(self):
        """Register store entries the scheduler has not seen (initial
        seeds just added, a merged-in store, or a partially persisted
        wave): seeds are fuzzable, tests are archived regression value."""
        for entry in self.store.entries():
            self.scheduler.add(entry["hash"],
                               schedulable=(entry["kind"] == "seed"))

    # -- initial pool -------------------------------------------------------
    def _draw_initial_pool(self, dataset, seed_strategy, initial_seed_count,
                           initial_seeds):
        """Persist the first seed pool (deterministic + idempotent).

        The draw depends only on the root seed, so replaying it — after
        a kill that left a partial pool behind — re-adds the exact same
        seeds in the exact same order, with the already-present prefix
        deduping to no-ops.
        """
        if initial_seeds is None:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, 0x5EED]))
            initial_seeds, _ = select_seeds(seed_strategy, dataset,
                                            initial_seed_count, rng=rng,
                                            models=self.models)
        for index, x in enumerate(np.asarray(initial_seeds,
                                             dtype=np.float64)):
            self.store.add_entry(x, "seed", origin=int(index))

    def _resume_pool_draw(self, state, dataset, seed_strategy,
                          initial_seed_count, initial_seeds):
        """Finish an initial-pool draw a previous session died inside."""
        if initial_seeds is None and dataset is None:
            raise ConfigError(
                "session was interrupted while drawing its initial seed "
                "pool; re-run with the same dataset/seed source so the "
                "draw can finish")
        if (state.get("pool_strategy") is not None
                and (state["pool_strategy"] != seed_strategy
                     or int(state["pool_count"]) != int(initial_seed_count))):
            raise ConfigError(
                f"cannot finish interrupted pool draw: it used strategy "
                f"{state['pool_strategy']!r} with {state['pool_count']} "
                f"seed(s), this session asks for {seed_strategy!r} with "
                f"{initial_seed_count}")
        self._draw_initial_pool(dataset, seed_strategy, initial_seed_count,
                                initial_seeds)

    # -- the wave loop ------------------------------------------------------
    def run(self, rounds, shard_runner=None):
        """Advance the corpus to ``rounds`` total completed rounds.

        ``rounds`` is a *target*, not an increment: a fresh corpus runs
        rounds ``0..rounds-1``; a corpus already at ``rounds`` runs
        nothing; a corpus killed mid-way continues from its checkpoint.
        Stops early when the scheduler has no pending seeds.  Returns a
        :class:`FuzzReport`.

        ``shard_runner`` overrides each wave campaign's shard placement
        (see :meth:`Campaign.run`); the distribution layer passes a
        ledger-backed runner here so federated hosts split a wave's
        shards between them.  Placement only — results are identical
        with or without one.
        """
        if rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {rounds}")
        report = FuzzReport(completed_rounds=self.completed_rounds)
        start = time.perf_counter()
        if rounds <= self.completed_rounds:
            report.elapsed = time.perf_counter() - start
            return report
        children = spawn_seed_sequences(self.seed, rounds)
        tracked_total = sum(t.tracked_count for t in self.trackers)
        # With workers > 1 and no runner given, one pool of engine
        # processes serves every wave of this call instead of a fresh
        # pool per wave (throughput only — a pooled wave is
        # bit-identical to an in-process one).
        pool = None
        try:
            for round_index in range(self.completed_rounds, rounds):
                wave = self.scheduler.next_wave(self.wave_size)
                if not wave:
                    break
                covered_before = sum(t.covered_count()
                                     for t in self.trackers)
                campaign = Campaign(
                    self.models, self.hp, self.constraint, task=self.task,
                    trackers=self.trackers, workers=self.workers,
                    shard_size=self.shard_size, seed=children[round_index],
                    rule=self.rule)
                if shard_runner is None and self.workers > 1:
                    shard_runner = pool = campaign.make_pool()
                scales = None
                if self.rule.accepts_seed_scales:
                    # Close the feedback loop: each scheduled seed's step
                    # scale comes from its scheduler energy (dry seeds step
                    # farther, hot ones more carefully).  Energies are part
                    # of the committed scheduler state, so a resumed wave
                    # recomputes the same scales bit-for-bit.
                    scales = self.rule.scales_from_energy(
                        [self.scheduler.stats(h)["energy"] for h in wave])
                result = campaign.run(self.store.load_inputs(wave),
                                      seed_scales=scales,
                                      shard_runner=shard_runner)
                newly = sum(t.covered_count()
                            for t in self.trackers) - covered_before
                novelty = newly / tracked_total if tracked_total else 0.0
                yielded, new_tests = set(), 0
                for test in result.tests:
                    yielded.add(wave[test.seed_index])
                    entry_hash, added = self.store.add_test(
                        test, wave[test.seed_index], round=round_index)
                    self.scheduler.add(entry_hash, schedulable=False)
                    new_tests += int(added)
                self.scheduler.record_wave(wave, yielded, novelty)
                self.completed_rounds = round_index + 1
                self._commit(self.completed_rounds)
                report.waves.append({
                    "round": round_index,
                    "wave_size": len(wave),
                    "yielded": len(yielded),
                    "new_tests": new_tests,
                    "novelty": novelty,
                    "pending": self.scheduler.pending_count(),
                })
        finally:
            if pool is not None:
                pool.close()
        report.completed_rounds = self.completed_rounds
        report.elapsed = time.perf_counter() - start
        return report

    def _commit(self, completed_rounds, pool_complete=True, **pool_meta):
        fuzz_state = dict(self._identity())
        fuzz_state["completed_rounds"] = int(completed_rounds)
        fuzz_state["pool_complete"] = bool(pool_complete)
        fuzz_state.update(pool_meta)
        fuzz_state["scheduler"] = self.scheduler.state_dict()
        self.store.commit(
            coverage_states={m.name: t.state_dict()
                             for m, t in zip(self.models, self.trackers)},
            fuzz_state=fuzz_state)

    # -- conveniences -------------------------------------------------------
    def mean_coverage(self):
        """Mean neuron coverage across models, from the live trackers."""
        return float(np.mean([t.coverage() for t in self.trackers]))

    def distill(self):
        """Shrink the stored test set to a coverage-preserving subset.

        Delegates to :meth:`CorpusStore.distill` (greedy set-cover via
        ``analysis/minimize.py``), which also prunes the committed
        scheduler; the session then reloads its scheduler from the
        store.  Returns ``(kept, dropped)``.
        """
        kept, dropped = self.store.distill(
            self.models, threshold=self.hp.threshold)
        self.scheduler = SeedScheduler.from_state(
            self.store.fuzz_state()["scheduler"])
        self._register_entries()
        return kept, dropped

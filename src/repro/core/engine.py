"""The one ascent engine: Algorithm 1, vectorized, strategy-composed.

This module owns the repo's single gradient-ascent loop:

* :func:`run_ascent` — the loop body itself (lines 8-19 of the paper's
  Algorithm 1), a small vectorized driver with no knowledge of models
  or oracles.  The FGSM baseline iterates through it too; nothing else
  in ``src/repro/`` contains an ascent-iteration loop.
* :class:`AscentRule` — the per-iteration *update strategy*.  The rule
  library lives in :mod:`repro.core.rules` (vanilla, momentum,
  nesterov, adam, deepfool, adaptive) and is re-exported here.  Rules
  own per-seed state (e.g. velocity) and are told when finished seeds
  retire from the active batch so they can slice it
  (:meth:`AscentRule.compact`).  Rules that derive their own direction
  from the live tapes (DeepFool) read the engine's per-iteration state
  through the :class:`~repro.core.rules.AscentContext` the engine
  binds before ascending.
* :class:`AscentEngine` — models + oracle + coverage + constraints
  around the loop: pre-disagreement check, per-seed target draws,
  retire-and-compact of finished seeds, tape absorption into coverage.
  One call processes a whole seed set in one vectorized ascent.
* :class:`DeepXplore` — a batch-of-1 facade over the engine preserving
  Algorithm 1's per-seed sequencing (``cycle=``, ``desired_coverage=``,
  ``max_seed_visits=``), pinned by ``tests/core/test_engine.py``
  against the golden matrix in ``tests/data/golden_engines.json``.

Coverage semantics: difference-inducing inputs fold their tapes into
the trackers, as the paper specifies — and so do *exhausted* seeds:
their final activations were computed anyway, and discarding them made
the trackers lie about what the models were observed doing.  This is
the reproduction's one departure from Algorithm 1's accounting, in
which coverage updates only for difference-inducing inputs.

Execution model: every iteration records exactly one
:class:`~repro.nn.tape.ForwardPass` per model over the active batch,
which serves the oracle check, both objective gradients, and coverage
absorption; one backward sweep per model carries both objective
gradients, at float32 and float64 alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import Hyperparams
from repro.core.constraints import Constraint, Unconstrained
from repro.core.objectives import CoverageObjective
from repro.core.oracle import make_oracle
# The rule library lives in repro.core.rules; re-exported here because
# this module is the primary import site.
from repro.core.rules import (ASCENT_RULES, DEFAULT_MOMENTUM_BETA,
                              AdamRule, AdaptiveStepRule, AscentContext,
                              AscentRule, DeepFoolRule, MomentumRule,
                              NesterovRule, VanillaRule, make_rule)
from repro.coverage import NeuronCoverageTracker
from repro.errors import ConfigError
from repro.nn.workspace import Workspace
from repro.utils.rng import as_rng

__all__ = ["AscentRule", "AscentContext", "VanillaRule", "MomentumRule",
           "NesterovRule", "AdamRule", "DeepFoolRule", "AdaptiveStepRule",
           "make_rule", "ASCENT_RULES",
           "DEFAULT_MOMENTUM_BETA", "run_ascent", "AscentEngine",
           "DeepXplore", "GeneratedTest",
           "GenerationResult", "normalize_gradient"]


def normalize_gradient(grad):
    """RMS-normalize a batched gradient (per sample).

    The original DeepXplore implementation divides every gradient by its
    root-mean-square before stepping (``normalize`` in the released
    code), which makes the step size ``s`` meaningful across models and
    objectives whose raw gradient magnitudes differ by orders of
    magnitude.
    """
    batch = grad.shape[0]
    flat = grad.reshape(batch, -1)
    rms = np.sqrt((flat ** 2).mean(axis=1, keepdims=True))
    shape = (batch,) + (1,) * (grad.ndim - 1)
    return grad / (rms.reshape(shape) + 1e-8)


@dataclass
class GeneratedTest:
    """One difference-inducing input found by the generator."""

    x: np.ndarray               # the generated input (no batch axis)
    seed_index: int             # which seed it came from
    iterations: int             # ascent iterations used (0 = seed differed)
    predictions: np.ndarray     # per-model predictions on x
    seed_class: object          # seed's agreed class (None for regression)
    elapsed: float              # seconds from seed start to difference


@dataclass
class GenerationResult:
    """Outcome of a generation run over a seed set."""

    tests: list = field(default_factory=list)
    seeds_processed: int = 0
    seeds_disagreed: int = 0     # seeds the models already disagreed on
    seeds_exhausted: int = 0     # seeds that hit max_iterations
    elapsed: float = 0.0
    coverage: dict = field(default_factory=dict)  # model name -> NCov

    @property
    def difference_count(self):
        return len(self.tests)

    def test_inputs(self):
        """Stack all generated inputs into one array."""
        if not self.tests:
            return np.empty((0,))
        return np.stack([t.x for t in self.tests])

    def merge(self, other):
        """Fold another result (e.g. a campaign shard's) into this one.

        Tests keep the (globally unique) ``seed_index`` they were found
        for, and the merged list is re-ordered by it, so merging shard
        results in any order yields the same ``GenerationResult``.
        Counters add; ``elapsed`` adds too and therefore means *total
        compute seconds* after a merge — a parallel driver overwrites it
        with its own wall-clock.  Coverage fractions cannot be combined
        after the fact (a fraction forgets *which* neurons fired), so
        ``coverage`` is cleared; the campaign recomputes it from the
        merged trackers.  Returns ``self`` for chaining.
        """
        self.tests.extend(other.tests)
        self.tests.sort(key=lambda t: t.seed_index)
        self.seeds_processed += other.seeds_processed
        self.seeds_disagreed += other.seeds_disagreed
        self.seeds_exhausted += other.seeds_exhausted
        self.elapsed += other.elapsed
        self.coverage = {}
        return self


# -- the loop -------------------------------------------------------------------
def run_ascent(x, iterations, gradient, *, step, rule=None, constrain=None,
               direction=normalize_gradient, project=None, on_step=None):
    """THE vectorized ascent loop (Algorithm 1 lines 8-19).

    Every gradient-ascent iteration in the repo runs through this one
    body: the engine's joint-optimization ascent and the iterative-FGSM
    baseline alike.  Per iteration it

    1. calls ``gradient(x, iteration)`` for the raw batched gradient,
    2. rewrites it with ``constrain(grad, x)`` (domain constraints),
    3. maps it through ``direction`` (RMS-normalize by default;
       ``np.sign`` for FGSM; ``None`` to use the raw gradient),
    4. asks the ``rule`` for the step direction and takes the step —
       scaled by ``step``, unless the rule declares ``absolute_step``
       (DeepFool), in which case its update is the displacement itself,
    5. repairs the result with ``project(x_new, x_prev)``,
    6. hands the stepped batch to ``on_step(x, iteration)``, which may
       return a boolean *keep* mask: finished rows retire, and the loop
       compacts both ``x`` and the rule's per-seed state to the kept
       rows (``None`` keeps every row).

    Returns the final active batch — the rows that never finished
    (empty once every row retired).
    """
    rule = rule if rule is not None else VanillaRule()
    rule.reset(x)
    for iteration in range(1, iterations + 1):
        grad = gradient(x, iteration)
        if constrain is not None:
            grad = constrain(grad, x)
        if direction is not None:
            grad = direction(grad)
        delta = rule.update(grad)
        stepped = x + (delta if rule.absolute_step else step * delta)
        x = project(stepped, x) if project is not None else stepped
        if on_step is not None:
            keep = on_step(x, iteration)
            if keep is not None and not keep.all():
                x = x[keep]
                rule.compact(keep)
                if x.shape[0] == 0:
                    break
    return x


# -- the engine -----------------------------------------------------------------
class AscentEngine:
    """Whitebox differential test generator (paper Algorithm 1),
    vectorized over the seed set and composed with an ascent rule.

    Parameters
    ----------
    models:
        Two or more trained networks with identical input domains.
    hyperparams:
        :class:`~repro.core.config.Hyperparams`; paper defaults per
        dataset live in ``PAPER_HYPERPARAMS``.
    constraint:
        A :class:`~repro.core.constraints.Constraint`; defaults to
        pixel clipping only.  Constraints with per-seed state
        (occlusion patches) are cloned per seed.
    task:
        ``"classification"`` or ``"regression"``.
    trackers:
        Optional pre-existing coverage trackers (one per model); created
        fresh otherwise.  Sharing trackers across runs accumulates
        coverage, which is how Table 8 measures time-to-full-coverage.
    rule:
        The :class:`AscentRule` driving line 14; defaults to
        :class:`VanillaRule`.
    coverage_factory:
        Pluggable obj2: ``callable(trackers, rng)`` returning a coverage
        objective whose ``pick()`` returns one entry per model (``None``,
        a flat neuron id, or a sequence of ids); each model's picks ride
        obj1's backward sweep.  Default is Algorithm 1's
        one-neuron-per-model rule; extensions supply variants (e.g.
        multi-neuron).

    Seeds that hit ``max_iterations`` fold their final tapes into
    coverage too (see the module docstring).
    """

    def __init__(self, models, hyperparams=None, constraint=None,
                 task="classification", trackers=None, rng=None, rule=None,
                 coverage_factory=None):
        if len(models) < 2:
            raise ConfigError("differential testing needs >= 2 models")
        self.models = list(models)
        dtypes_seen = {np.dtype(m.dtype) for m in self.models}
        if len(dtypes_seen) > 1:
            raise ConfigError(
                "all models must share one compute dtype, got "
                f"{sorted(d.name for d in dtypes_seen)}; convert with "
                "network_from_payload(network_to_payload(m), dtype=...)")
        self.dtype = dtypes_seen.pop()
        self.hp = hyperparams or Hyperparams()
        self.constraint = constraint or Unconstrained()
        if not isinstance(self.constraint, Constraint):
            raise ConfigError("constraint must be a Constraint instance")
        self.task = task
        self.oracle = make_oracle(self.models, task)
        self.rng = as_rng(rng)
        if trackers is None:
            trackers = [NeuronCoverageTracker(m, threshold=self.hp.threshold)
                        for m in self.models]
        if len(trackers) != len(self.models):
            raise ConfigError("need exactly one tracker per model")
        self.trackers = list(trackers)
        self.rule = rule if rule is not None else VanillaRule()
        if not isinstance(self.rule, AscentRule):
            raise ConfigError("rule must be an AscentRule instance")
        if task == "regression" and not self.rule.supports_regression:
            raise ConfigError(
                f"the {self.rule.name} rule does not support regression "
                "tasks")
        self.coverage_factory = coverage_factory or (
            lambda trackers, rng: CoverageObjective(trackers, rng=rng))
        self._workspaces = [Workspace() for _ in self.models]

    # -- objective pieces, batched ----------------------------------------------
    def _run_models(self, x):
        """One recorded forward pass per model over the active batch.

        Each model draws its buffers from its own reusable workspace,
        which invalidates the *previous* iteration's tapes — the loop
        always consumes a tape's gradients and coverage before recording
        the next forward, so no stale view is ever read.
        """
        return [model.run(x, workspace=ws)
                for model, ws in zip(self.models, self._workspaces)]

    def _objective_gradient(self, tapes, rows, targets, seed_classes,
                            neurons):
        """Per-sample gradient of obj1, plus ``lambda2`` times each
        model's coverage neuron where ``neurons`` names one.

        ``rows`` maps active samples to rows of the tapes' batch (the
        batch may still contain just-retired samples); the returned
        gradient covers only the active rows.  One backward per model:
        the per-sample seed carries each sample's target sign (and, for
        classifiers, its class column), and a model's coverage-neuron
        seed rides the same sweep (:meth:`ForwardPass.gradient_joint`).
        A ``None`` neuron leaves the plain obj1 sweep.
        """
        lam = self.hp.lambda1
        batch = tapes[0].batch_size
        out_shape = tuple(self.models[0].output_shape)
        grad = None
        for k, tape in enumerate(tapes):
            weights = np.where(targets == k, -lam, 1.0)
            if self.task == "regression":
                sign = np.zeros((batch,) + (1,) * len(out_shape),
                                dtype=tape.dtype)
                sign[rows] = weights.reshape((-1,) + (1,) * len(out_shape))
                seed = np.broadcast_to(sign, (batch,) + out_shape)
            else:
                seed = np.zeros((batch,) + out_shape, dtype=tape.dtype)
                seed[rows, seed_classes] = weights
            g = tape.gradient_joint(seed, neurons[k], self.hp.lambda2)
            grad = g if grad is None else grad + g
        return grad[rows]

    # -- per-seed constraint state ----------------------------------------------
    def _setup_constraints(self, x):
        """Per-seed constraint instances when per-seed state matters.

        A constraint whose :meth:`setup` draws randomness (occlusion
        patches) is cloned once per active seed, so each seed ascends
        under its own draw.  Stateless constraints return ``None`` and
        keep the vectorized single-instance path.
        """
        if not self.constraint.per_seed_state:
            self.constraint.setup(x[0], self.rng)
            return None
        constraints = []
        for i in range(x.shape[0]):
            per_seed = self.constraint.clone()
            per_seed.setup(x[i], self.rng)
            constraints.append(per_seed)
        return constraints

    def _apply_constraints(self, constraints, grad, x):
        if constraints is None:
            return self.constraint.apply(grad, x)
        out = np.empty_like(grad)
        for i, per_seed in enumerate(constraints):
            out[i] = per_seed.apply(grad[i:i + 1], x[i:i + 1])[0]
        return out

    def _project_constraints(self, constraints, x_new, x_prev):
        if constraints is None:
            return self.constraint.project(x_new, x_prev)
        out = np.empty_like(x_new)
        for i, per_seed in enumerate(constraints):
            out[i] = per_seed.project(x_new[i:i + 1], x_prev[i:i + 1])[0]
        return out

    def _absorb_tapes(self, tapes, rows):
        """Fold the given rows of the iteration's tapes into each
        model's coverage — no re-execution."""
        for tracker, tape in zip(self.trackers, tapes):
            tracker.update_from_tape(tape, rows=rows)

    # -- the ascent -----------------------------------------------------------
    def _ascend(self, seeds, result, max_tests, start, seed_scales=None):
        """Ascend one seed batch, appending to ``result`` in place.

        Seed indices on the appended tests are positions within
        ``seeds``; :meth:`generate_from_seed` and campaign shards
        rewrite them into their own index spaces.  ``seed_scales``
        aligns with ``seeds`` and is sliced to the rows that actually
        ascend before reaching the rule.
        """
        n = seeds.shape[0]
        # Seeds the models already disagree on are immediate tests.
        tapes = self._run_models(seeds)
        outputs = [tape.outputs() for tape in tapes]
        pre_differs = self.oracle.differs_from_outputs(outputs)
        pre_preds = self.oracle.predictions_from_outputs(outputs)
        active_idx = []
        for i in range(n):
            if pre_differs[i]:
                result.tests.append(GeneratedTest(
                    x=seeds[i].copy(), seed_index=i, iterations=0,
                    predictions=pre_preds[:, i], seed_class=None,
                    elapsed=time.perf_counter() - start))
                result.seeds_disagreed += 1
            else:
                active_idx.append(i)
        if result.seeds_disagreed:
            self._absorb_tapes(tapes, np.flatnonzero(pre_differs))
        if not active_idx or (max_tests is not None
                              and len(result.tests) >= max_tests):
            return

        x = seeds[active_idx].copy()
        if self.task == "classification":
            seed_classes = outputs[0][active_idx].argmax(axis=1)
        else:
            seed_classes = np.zeros(len(active_idx), dtype=int)
        # Line 6: each seed draws its own random target model.
        coverage = self.coverage_factory(self.trackers, self.rng)
        # Mutable per-iteration state shared by the loop callbacks:
        # ``tapes``/``rows`` always describe the latest recorded forward
        # (``rows`` maps active samples to tape rows, since the tapes
        # may still cover just-retired samples).
        st = {
            "tapes": tapes,
            "rows": np.asarray(active_idx),
            "index_map": np.asarray(active_idx),
            "targets": self.rng.integers(0, len(self.models),
                                         size=len(active_idx)),
            "seed_classes": seed_classes,
            "constraints": None,
            "aborted": False,
            "x": x,
        }
        st["constraints"] = self._setup_constraints(x)

        def gradient(x_cur, iteration):
            st["x"] = x_cur
            if not self.rule.consumes_gradient:
                # The rule derives its direction from the bound context
                # (DeepFool); skip the obj1/obj2 backwards entirely —
                # coverage absorption is unaffected, it reads tapes.
                return np.zeros_like(x_cur)
            neurons = (coverage.pick() if self.hp.lambda2 > 0.0
                       else [None] * len(self.models))
            return self._objective_gradient(
                st["tapes"], st["rows"], st["targets"], st["seed_classes"],
                neurons)

        def constrain(grad, x_cur):
            return self._apply_constraints(st["constraints"], grad, x_cur)

        def project(x_new, x_prev):
            return self._project_constraints(st["constraints"], x_new,
                                             x_prev)

        def on_step(x_cur, iteration):
            # The stepped batch's tapes serve the oracle check now and,
            # if rows stay active, the next iteration's gradients.
            tapes = self._run_models(x_cur)
            outputs = [tape.outputs() for tape in tapes]
            differs = self.oracle.differs_from_outputs(outputs)
            st["tapes"] = tapes
            st["rows"] = np.arange(x_cur.shape[0])
            if not differs.any():
                return None
            preds = self.oracle.predictions_from_outputs(outputs)
            finished = np.flatnonzero(differs)
            for pos in finished:
                result.tests.append(GeneratedTest(
                    x=x_cur[pos].copy(),
                    seed_index=int(st["index_map"][pos]),
                    iterations=iteration,
                    predictions=preds[:, pos],
                    seed_class=(int(st["seed_classes"][pos])
                                if self.task == "classification"
                                else None),
                    elapsed=time.perf_counter() - start))
            self._absorb_tapes(tapes, finished)
            if max_tests is not None and len(result.tests) >= max_tests:
                st["aborted"] = True
                return np.zeros(x_cur.shape[0], dtype=bool)
            keep = ~differs
            st["index_map"] = st["index_map"][keep]
            st["targets"] = st["targets"][keep]
            st["seed_classes"] = st["seed_classes"][keep]
            if st["constraints"] is not None:
                st["constraints"] = [c for c, k
                                     in zip(st["constraints"], keep) if k]
            st["rows"] = np.flatnonzero(keep)
            return keep

        if self.rule.accepts_seed_scales:
            # Pending scales are per-run inputs: always (re)set them so
            # a scale-less run never inherits a previous run's scales.
            scales = (None if seed_scales is None
                      else np.asarray(seed_scales)[active_idx])
            self.rule.set_seed_scales(scales)
        self.rule.bind(AscentContext(st, self.hp.step, constrain,
                                     self.task))
        try:
            remaining = run_ascent(x, self.hp.max_iterations, gradient,
                                   step=self.hp.step, rule=self.rule,
                                   constrain=constrain, project=project,
                                   on_step=on_step)
        finally:
            # The context holds live tapes; never let it outlive the
            # ascent (rules must stay picklable for campaign specs).
            self.rule.bind(None)
        if st["aborted"]:
            return
        if remaining.shape[0]:
            result.seeds_exhausted = int(remaining.shape[0])
            # Line 18's counterpart for seeds that never flipped: their
            # final activations are already on the tapes.
            self._absorb_tapes(st["tapes"], st["rows"])

    # -- drivers --------------------------------------------------------------
    def run(self, seeds, max_tests=None, seed_scales=None):
        """Process all seeds in one vectorized ascent; returns results.

        ``seed_scales`` (one float per seed) feeds rules that honour
        per-seed step scaling (:class:`AdaptiveStepRule`); passing it to
        any other rule is a :class:`~repro.errors.ConfigError`.
        """
        seeds = np.asarray(seeds, dtype=self.dtype)
        if seed_scales is not None:
            if not self.rule.accepts_seed_scales:
                raise ConfigError(
                    f"the {self.rule.name} rule does not accept per-seed "
                    "step scales")
            seed_scales = np.asarray(seed_scales, dtype=np.float64)
            if seed_scales.shape != (seeds.shape[0],):
                raise ConfigError(
                    f"need one seed scale per seed; got shape "
                    f"{seed_scales.shape} for {seeds.shape[0]} seed(s)")
        result = GenerationResult()
        start = time.perf_counter()
        if seeds.shape[0] == 0:
            # An empty corpus is a clean no-op result, not a reshape
            # crash deep in the forward pass (campaign shards and fuzz
            # waves may legitimately drain to nothing).
            return self._finalize(result, start)
        result.seeds_processed = seeds.shape[0]
        self._ascend(seeds, result, max_tests, start,
                     seed_scales=seed_scales)
        return self._finalize(result, start)

    def generate_from_seed(self, seed_x, seed_index=0):
        """Run gradient ascent from one seed (a batch of one); returns a
        :class:`GeneratedTest` or ``None`` if the seed exhausted.

        ``seed_x`` is a single input without batch axis.
        """
        start = time.perf_counter()
        x = np.asarray(seed_x, dtype=self.dtype)[None, ...]
        result = GenerationResult()
        self._ascend(x, result, None, start)
        if not result.tests:
            return None
        test = result.tests[0]
        test.seed_index = seed_index
        return test

    def _finalize(self, result, start):
        result.elapsed = time.perf_counter() - start
        result.coverage = {m.name: t.coverage()
                           for m, t in zip(self.models, self.trackers)}
        return result

    def mean_coverage(self):
        """Mean neuron coverage across the tested models."""
        return float(np.mean([t.coverage() for t in self.trackers]))


class DeepXplore(AscentEngine):
    """Batch-of-1 facade: Algorithm 1 exactly as the paper sequences it.

    Seeds are processed one at a time — each seed's ascent is a
    batch-of-one call into the shared engine, so the per-seed sequencing
    (each seed draws its target model, constraint state, and coverage
    picks in turn, and sees the coverage its predecessors accumulated)
    matches the paper's pseudocode.  Coverage is the engine's: a seed
    that exhausts its iterations folds its final tape in too, where
    Algorithm 1 updates coverage only for difference-inducing inputs.
    Prefer :class:`AscentEngine` (whole seed set per call) when per-seed
    sequencing doesn't matter: same results, a fraction of the
    wall-clock.
    """

    # -- seed-set driver ----------------------------------------------------------
    def run(self, seeds, desired_coverage=None, max_tests=None,
            cycle=False, max_seed_visits=None):
        """Process a seed set (the paper's main loop, lines 3-21).

        Stops when seeds are exhausted (or, with ``cycle=True``, keeps
        cycling through them as Algorithm 1's ``cycle(x in seed_set)``
        does) until ``desired_coverage`` (mean NCov across models),
        ``max_tests``, or the ``max_seed_visits`` budget is reached.
        """
        seeds = np.asarray(seeds, dtype=self.dtype)
        result = GenerationResult()
        start = time.perf_counter()
        indices = range(seeds.shape[0])
        while seeds.shape[0]:   # cycling over an empty set is a no-op
            for i in indices:
                if self._done(result, desired_coverage, max_tests):
                    break
                if (max_seed_visits is not None
                        and result.seeds_processed >= max_seed_visits):
                    break
                test = self.generate_from_seed(seeds[i], seed_index=i)
                result.seeds_processed += 1
                if test is None:
                    result.seeds_exhausted += 1
                elif test.iterations == 0:
                    result.seeds_disagreed += 1
                    result.tests.append(test)
                else:
                    result.tests.append(test)
            budget_hit = (max_seed_visits is not None
                          and result.seeds_processed >= max_seed_visits)
            if (not cycle or budget_hit
                    or self._done(result, desired_coverage, max_tests)):
                break
        result.elapsed = time.perf_counter() - start
        result.coverage = {m.name: t.coverage()
                           for m, t in zip(self.models, self.trackers)}
        return result

    def _done(self, result, desired_coverage, max_tests):
        if max_tests is not None and len(result.tests) >= max_tests:
            return True
        if desired_coverage is not None:
            mean_cov = float(np.mean([t.coverage() for t in self.trackers]))
            if mean_cov >= desired_coverage:
                return True
        return False


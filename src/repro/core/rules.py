"""The ascent rule library: per-iteration update strategies for line 14.

PR 5 collapsed the repo onto one ascent loop (:func:`repro.core.engine.
run_ascent`) whose per-iteration update is a pluggable
:class:`AscentRule`.  This module is where the rules live — adding a
strategy means adding a rule here, never an engine:

* :class:`VanillaRule` — the paper's line 14 (``x += s * grad``).
* :class:`MomentumRule` — heavy-ball (``v = beta*v + grad``).
* :class:`NesterovRule` — Nesterov look-ahead momentum
  (``v = beta*v + grad``, step along ``grad + beta*v``).
* :class:`AdamRule` — per-seed first/second-moment adaptive steps
  (Kingma & Ba) with bias correction.
* :class:`DeepFoolRule` — decision-boundary seeking (Moosavi-Dezfooli
  et al.): pairwise output/gradient differences against the seed class
  on the per-seed *target* model's tape, one closed-form step toward
  the nearest class boundary, times an overshoot factor.
* :class:`AdaptiveStepRule` — a decorator that scales the effective
  step size per seed from the fuzz scheduler's energy/novelty feedback
  (dry seeds escalate, hot/novel seeds tread carefully).

The rule contract (enforced for every registered rule by
``tests/core/test_rule_conformance.py``; the laws are documented in
docs/ARCHITECTURE.md):

* **State slicing** — per-seed state is row-aligned with the active
  batch; :meth:`AscentRule.compact` slices every state row exactly like
  the engine slices ``x``, so a surviving seed's trajectory is
  bit-identical to ascending it alone.
* **Identity** — :meth:`AscentRule.identity` is a deterministic string
  that survives JSON, equal across :meth:`AscentRule.clone` and
  different when a parameter differs; fuzz corpora persist it as part
  of their resume contract and compare it, never parse it.
* **Clone** — :meth:`AscentRule.clone` returns an independent copy
  (campaign shards and fuzz workers each ascend under their own);
  a bound :class:`AscentContext` is never carried into the copy.
* **State round-trip** — :meth:`AscentRule.state_dict` /
  :meth:`AscentRule.load_state_dict` round-trip the per-seed state
  through JSON bit-identically (float64).

Rules that need more than the joint gradient (DeepFool's pairwise
boundary search) read the engine's per-iteration state through the
:class:`AscentContext` the engine binds before ascending (an unbound
rule raises a :class:`~repro.errors.ConfigError` from :meth:`update`),
and may switch the engine's own objective backwards off entirely
(``consumes_gradient = False``).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.errors import ConfigError

__all__ = ["AscentRule", "AscentContext", "VanillaRule", "MomentumRule",
           "NesterovRule", "AdamRule", "DeepFoolRule", "AdaptiveStepRule",
           "make_rule", "ASCENT_RULES",
           "DEFAULT_MOMENTUM_BETA", "DEFAULT_DEEPFOOL_OVERSHOOT"]

DEFAULT_MOMENTUM_BETA = 0.9
DEFAULT_DEEPFOOL_OVERSHOOT = 0.02

#: Scheduler energies below this floor stop growing the adaptive step
#: (matches the scheduler's retirement epsilon, 1/64).
_ENERGY_FLOOR = 1.0 / 64.0


class AscentContext:
    """Live view of the engine's per-iteration ascent state.

    The engine binds one context per ascent (:meth:`AscentRule.bind`)
    and keeps its underlying state dict current every iteration, so a
    boundary-aware rule always sees the tapes, rows, targets, and input
    batch of *this* iteration.  ``constrain`` is the engine's
    domain-constraint rewrite (per-seed instances included), so rule
    directions obey the same physical-realism rules the joint gradient
    does.
    """

    __slots__ = ("_state", "step", "_constrain", "task")

    def __init__(self, state, step, constrain, task):
        self._state = state
        self.step = float(step)
        self._constrain = constrain
        self.task = task

    @property
    def tapes(self):
        """One :class:`~repro.nn.tape.ForwardPass` per model, recorded
        over the latest forward (may still cover just-retired rows)."""
        return self._state["tapes"]

    @property
    def rows(self):
        """Active-sample positions within the tapes' batch."""
        return self._state["rows"]

    @property
    def targets(self):
        """Per-active-sample target model index (the paper's line 6)."""
        return self._state["targets"]

    @property
    def seed_classes(self):
        """Per-active-sample seed class (classification only)."""
        return self._state["seed_classes"]

    @property
    def x(self):
        """The current active input batch."""
        return self._state["x"]

    def constrain(self, grad, x):
        """Apply the engine's domain constraints to a direction."""
        return self._constrain(grad, x)


# -- the contract ---------------------------------------------------------------
class AscentRule:
    """Per-iteration update strategy for the ascent loop.

    A rule turns the constrained, normalized gradient of the current
    iteration into the step *direction*.  Rules may keep per-seed state
    across iterations (one row per active seed); the loop tells them
    when a new batch starts (:meth:`reset`) and when finished seeds
    retire from it (:meth:`compact`), so the state stays row-aligned
    with the active batch.

    Rules are cheap value objects: engines, campaigns, and fuzz
    sessions :meth:`clone` them freely (shards and worker processes
    each ascend under their own copy).

    Class-level capability flags (engines consult them):

    ``consumes_gradient``
        The rule uses the engine-computed joint (obj1 + λ2·obj2)
        gradient.  ``False`` lets the engine skip those backwards
        entirely — the rule derives its own direction from the bound
        :class:`AscentContext`.
    ``absolute_step``
        :meth:`update` returns an absolute displacement, applied as-is;
        the default ``False`` scales the returned direction by the
        engine's step size ``s``.
    ``supports_regression``
        The rule can drive regression tapes (DeepFool is
        classification-only).
    ``accepts_seed_scales``
        The rule honours per-seed step scales
        (:meth:`set_seed_scales`); engines refuse ``seed_scales`` for
        rules that don't.
    """

    name = "rule"
    consumes_gradient = True
    absolute_step = False
    supports_regression = True
    accepts_seed_scales = False

    _context = None

    def bind(self, context):
        """Attach this ascent's :class:`AscentContext` (engine-called)."""
        self._context = context

    def reset(self, x):
        """A new active batch ``x`` starts ascending; allocate state."""

    def update(self, grad):
        """Return the step direction for this iteration's gradient."""
        return grad

    def compact(self, keep):
        """Finished seeds retired: keep only state rows where ``keep``."""

    def clone(self):
        """Independent copy with the same configuration.

        A bound context is engine-owned live state, never part of the
        rule's value; the copy starts unbound.
        """
        context, self._context = self._context, None
        try:
            copied = copy.deepcopy(self)
        finally:
            self._context = context
        return copied

    def identity(self):
        """Deterministic-identity string (part of a fuzz corpus's
        resume contract: resuming under a different rule is an error)."""
        return self.name

    def state_dict(self):
        """JSON-serializable snapshot of the per-seed ascent state."""
        return {}

    def load_state_dict(self, state):
        """Restore a :meth:`state_dict` snapshot bit-identically."""

    # -- helpers ------------------------------------------------------------
    def _require_context(self):
        if self._context is None:
            raise ConfigError(
                f"the {self.name} rule needs the engine's ascent context; "
                "run it inside an AscentEngine (or bind() one first)")
        return self._context

    @staticmethod
    def _array_state(value):
        return None if value is None else np.asarray(value).tolist()

    @staticmethod
    def _array_from_state(value, like=None):
        if value is None:
            return None
        dtype = like.dtype if like is not None else np.float64
        return np.asarray(value, dtype=dtype)


class VanillaRule(AscentRule):
    """The paper's line 14: step straight along the gradient."""

    name = "vanilla"


class MomentumRule(AscentRule):
    """Heavy-ball ascent: ``v = beta*v + grad``; step along ``v``.

    Plain gradient ascent can oscillate around narrow difference
    regions, especially at large step sizes (the paper's Table 9 notes
    "larger s may lead to oscillation around the local optimum");
    momentum damps that oscillation.  ``beta = 0`` reduces exactly to
    :class:`VanillaRule`.
    """

    name = "momentum"

    def __init__(self, beta=DEFAULT_MOMENTUM_BETA):
        if not 0.0 <= beta < 1.0:
            raise ConfigError(f"beta must be in [0, 1), got {beta}")
        self.beta = float(beta)
        self._velocity = None

    def reset(self, x):
        self._velocity = np.zeros_like(x)

    def update(self, grad):
        self._velocity = self.beta * self._velocity + grad
        return self._velocity

    def compact(self, keep):
        self._velocity = self._velocity[keep]

    def identity(self):
        # repr round-trips the float exactly — two distinct betas can
        # never alias to one identity string (%g would collide past six
        # significant digits and let a mismatched resume through).
        return f"{self.name}(beta={self.beta!r})"

    def state_dict(self):
        return {"velocity": self._array_state(self._velocity)}

    def load_state_dict(self, state):
        self._velocity = self._array_from_state(state["velocity"],
                                                like=self._velocity)


class NesterovRule(MomentumRule):
    """Nesterov look-ahead momentum.

    Same velocity recursion (and state) as heavy-ball
    (``v = beta*v + grad``) but the step follows the *look-ahead*
    direction ``grad + beta*v`` — the gradient correction is applied
    after the momentum extrapolation, which reacts one iteration
    earlier when the ascent overshoots a narrow difference region.
    ``beta = 0`` reduces exactly to :class:`VanillaRule`.
    """

    name = "nesterov"

    def update(self, grad):
        self._velocity = self.beta * self._velocity + grad
        return grad + self.beta * self._velocity


class AdamRule(AscentRule):
    """Adam ascent: per-seed first/second moments with bias correction.

    The incoming gradient is already RMS-normalized per sample, so the
    second-moment rescaling mostly evens out *within*-sample magnitude
    differences — pixels with consistently small gradients step as far
    as loud ones, which helps on plateaus where vanilla ascent stalls.
    All moment state is per-seed (one row each) and compacts with the
    active batch; the bias-correction step count is shared, since every
    seed in a batch starts ascending at iteration one together.
    """

    name = "adam"

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        if not 0.0 <= beta1 < 1.0:
            raise ConfigError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"beta2 must be in [0, 1), got {beta2}")
        if eps <= 0.0:
            raise ConfigError(f"eps must be positive, got {eps}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m = None
        self._v = None
        self._t = 0

    def reset(self, x):
        self._m = np.zeros_like(x)
        self._v = np.zeros_like(x)
        self._t = 0

    def update(self, grad):
        self._t += 1
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grad * grad
        m_hat = self._m / (1.0 - self.beta1 ** self._t)
        v_hat = self._v / (1.0 - self.beta2 ** self._t)
        return m_hat / (np.sqrt(v_hat) + self.eps)

    def compact(self, keep):
        self._m = self._m[keep]
        self._v = self._v[keep]

    def identity(self):
        return (f"adam(beta1={self.beta1!r},beta2={self.beta2!r},"
                f"eps={self.eps!r})")

    def state_dict(self):
        return {"m": self._array_state(self._m),
                "v": self._array_state(self._v),
                "t": int(self._t)}

    def load_state_dict(self, state):
        self._m = self._array_from_state(state["m"], like=self._m)
        self._v = self._array_from_state(state["v"], like=self._v)
        self._t = int(state["t"])


class DeepFoolRule(AscentRule):
    """Step toward the target model's nearest decision boundary.

    Per active seed the engine has already drawn a *target* model (the
    paper's line 6: the model obj1 pushes away from the agreed class).
    DeepFool observes that the minimal disagreement-inducing
    perturbation is the one crossing that model's nearest class
    boundary, and that a linearization of each boundary gives it in
    closed form (Moosavi-Dezfooli et al., algorithm 2; the pairwise
    shape follows foolbox's implementation): for every candidate class
    ``k`` of seed class ``c``,

    * ``dl_k = f_k(x) - f_c(x)`` (output difference, from the tape),
    * ``dg_k = ∇f_k(x) - ∇f_c(x)`` (gradient difference, one backward
      per candidate slot via the tape's per-sample seed matrices),

    the linearized distance to boundary ``k`` is ``|dl_k| / ||dg_k||``,
    and the nearest boundary ``k*`` is crossed with the absolute step
    ``w = (|dl_k*| / ||dg_k*||²) · dg_k*``, scaled by ``1 + overshoot``
    so the iterate lands on the far side rather than exactly on the
    (measure-zero) boundary.  Gradient differences are rewritten by the
    engine's domain constraints *before* the distances are measured, so
    the rule picks the boundary nearest within the constrained
    subspace, not one it is never allowed to walk toward.

    The rule ignores the engine's joint gradient entirely
    (``consumes_gradient = False`` — the obj1/obj2 backwards are
    skipped) and returns absolute displacements (``absolute_step``):
    each iteration re-linearizes at the new iterate, so ascent reaches
    a difference in a handful of steps where fixed-step rules need
    dozens.  Coverage is untouched: tapes still fold into the trackers
    exactly as for every other rule.  Classification only.  Every
    non-seed class boundary is searched (one backward per candidate
    class per iteration).
    """

    name = "deepfool"
    consumes_gradient = False
    absolute_step = True
    supports_regression = False

    def __init__(self, overshoot=DEFAULT_DEEPFOOL_OVERSHOOT):
        if overshoot < 0.0:
            raise ConfigError(f"overshoot must be >= 0, got {overshoot}")
        self.overshoot = float(overshoot)

    def identity(self):
        return f"deepfool(overshoot={self.overshoot!r})"

    def update(self, grad):
        ctx = self._require_context()
        tapes = ctx.tapes
        rows = np.asarray(ctx.rows)
        targets = np.asarray(ctx.targets)
        classes = np.asarray(ctx.seed_classes)
        x = ctx.x
        n = x.shape[0]
        samples = np.arange(n)
        flat = (n, -1)
        shape_tail = (n,) + (1,) * (x.ndim - 1)

        # Per-sample outputs and seed-class gradients of each sample's
        # *own* target model — one backward per model present.
        by_model = {int(k): np.flatnonzero(targets == k)
                    for k in np.unique(targets)}
        n_classes = tapes[0].outputs().shape[1]
        outs = np.empty((n, n_classes), dtype=x.dtype)
        g_seed = np.empty_like(x)
        for k, sel in by_model.items():
            tape = tapes[k]
            outs[sel] = tape.outputs()[rows[sel]]
            seed = np.zeros((tape.batch_size, n_classes), dtype=tape.dtype)
            seed[rows[sel], classes[sel]] = 1.0
            g_seed[sel] = tape.gradient_of_output(seed)[rows[sel]]
        f_seed = outs[samples, classes]

        # Candidate classes per sample: non-seed classes by descending
        # output.
        order = np.argsort(-outs, axis=1, kind="stable")
        cand = np.empty((n, n_classes - 1), dtype=int)
        for i in samples:   # drop the seed class from each row's order
            row = order[i]
            cand[i] = row[row != classes[i]]

        best_dist = np.full(n, np.inf)
        best_step = np.zeros_like(x)
        for j in range(cand.shape[1]):
            cand_j = cand[:, j]
            g_cand = np.empty_like(x)
            for k, sel in by_model.items():
                tape = tapes[k]
                seed = np.zeros((tape.batch_size, n_classes),
                                dtype=tape.dtype)
                seed[rows[sel], cand_j[sel]] = 1.0
                g_cand[sel] = tape.gradient_of_output(seed)[rows[sel]]
            dl = outs[samples, cand_j] - f_seed
            dg = ctx.constrain(g_cand - g_seed, x)
            norm_sq = (dg.reshape(flat) ** 2).sum(axis=1)
            norm = np.sqrt(norm_sq)
            dist = np.abs(dl) / (norm + 1e-12)
            better = (dist < best_dist) & (norm > 1e-12)
            if not better.any():
                continue
            scale = (np.abs(dl) + 1e-6) / (norm_sq + 1e-12)
            step = scale.reshape(shape_tail) * dg
            best_dist = np.where(better, dist, best_dist)
            best_step[better] = step[better]
        return (1.0 + self.overshoot) * best_step


class AdaptiveStepRule(AscentRule):
    """Decorator rule: per-seed step-size scaling from fuzz feedback.

    Wraps any non-absolute rule and multiplies its per-seed directions
    by a scale row, so seed *i* effectively ascends with step
    ``scale_i * s``.  The scales come from the fuzz scheduler's
    energy bookkeeping (:meth:`scales_from_energy`): a seed's energy
    already folds together its dry-visit decay and the novelty of the
    waves it ran in, so

        ``scale = clip((1 / energy) ** gamma, 1/max_scale, max_scale)``

    sends decayed seeds (repeatedly visited without yielding) up the
    step ladder to escape their plateau, while novelty-boosted seeds
    (energy above 1) step *more* carefully through their productive
    region.  A fresh seed (energy 1) gets exactly the base step, so a
    first wave under ``adaptive(vanilla, ...)`` is bit-identical to
    vanilla.

    Scales are per-``run`` inputs (:meth:`set_seed_scales`, threaded
    from ``engine.run(seed_scales=...)`` through campaign shards); when
    none are set every seed scales by 1.  The scale row compacts with
    the active batch exactly like any other per-seed state.
    """

    name = "adaptive"
    accepts_seed_scales = True

    def __init__(self, inner=None, gamma=0.5, max_scale=4.0):
        inner = inner if inner is not None else VanillaRule()
        if not isinstance(inner, AscentRule):
            raise ConfigError("inner must be an AscentRule instance")
        if isinstance(inner, AdaptiveStepRule):
            raise ConfigError("adaptive rules do not nest")
        if inner.absolute_step:
            raise ConfigError(
                f"the {inner.name} rule takes absolute steps; per-seed "
                "step scaling does not apply to it")
        if gamma < 0.0:
            raise ConfigError(f"gamma must be >= 0, got {gamma}")
        if max_scale < 1.0:
            raise ConfigError(f"max_scale must be >= 1, got {max_scale}")
        self.inner = inner
        self.gamma = float(gamma)
        self.max_scale = float(max_scale)
        # Capability flags follow the wrapped rule.
        self.consumes_gradient = inner.consumes_gradient
        self.supports_regression = inner.supports_regression
        self._scales = None       # pending per-run scales (seed-aligned)
        self._row_scales = None   # active, row-aligned with the batch

    def bind(self, context):
        super().bind(context)
        self.inner.bind(context)

    def set_seed_scales(self, scales):
        """Provide the per-seed scales for the next :meth:`reset`
        (``None`` means every seed scales by 1)."""
        self._scales = (None if scales is None
                        else np.asarray(scales, dtype=np.float64))

    def scales_from_energy(self, energies):
        """Map scheduler energies to per-seed step scales."""
        energy = np.maximum(np.asarray(energies, dtype=np.float64),
                            _ENERGY_FLOOR)
        return np.clip((1.0 / energy) ** self.gamma,
                       1.0 / self.max_scale, self.max_scale)

    def reset(self, x):
        if self._scales is None:
            self._row_scales = np.ones(x.shape[0], dtype=np.float64)
        else:
            if self._scales.shape[0] != x.shape[0]:
                raise ConfigError(
                    f"got {self._scales.shape[0]} seed scale(s) for a "
                    f"batch of {x.shape[0]}")
            self._row_scales = self._scales.copy()
        self.inner.reset(x)

    def update(self, grad):
        direction = self.inner.update(grad)
        shape = (direction.shape[0],) + (1,) * (direction.ndim - 1)
        return direction * self._row_scales.reshape(shape).astype(
            direction.dtype)

    def compact(self, keep):
        self._row_scales = self._row_scales[keep]
        self.inner.compact(keep)

    def identity(self):
        return (f"adaptive({self.inner.identity()},gamma={self.gamma!r},"
                f"max_scale={self.max_scale!r})")

    def state_dict(self):
        return {"scales": self._array_state(self._row_scales),
                "inner": self.inner.state_dict()}

    def load_state_dict(self, state):
        self._row_scales = self._array_from_state(state["scales"])
        self.inner.load_state_dict(state["inner"])


# -- registry -------------------------------------------------------------------
#: Rule names accepted by :func:`make_rule` (and the CLI's ``--ascent``).
ASCENT_RULES = ("vanilla", "momentum", "nesterov", "adam", "deepfool",
                "adaptive")

_RULE_CLASSES = {
    "vanilla": VanillaRule,
    "momentum": MomentumRule,
    "nesterov": NesterovRule,
    "adam": AdamRule,
    "deepfool": DeepFoolRule,
    "adaptive": AdaptiveStepRule,
}


def make_rule(ascent="vanilla", beta=None, overshoot=None):
    """Resolve an ``--ascent``-style spec into an :class:`AscentRule`.

    ``ascent`` is one of :data:`ASCENT_RULES`.  ``beta`` applies to the
    momentum and nesterov rules, ``overshoot`` to deepfool; passing a
    flag to a rule that does not accept it is a
    :class:`~repro.errors.ConfigError` (the CLI surfaces it as a
    one-line error).
    """
    if ascent not in _RULE_CLASSES:
        raise ConfigError(
            f"unknown ascent rule {ascent!r}; known: "
            f"{', '.join(ASCENT_RULES)}")
    if beta is not None and ascent not in ("momentum", "nesterov"):
        raise ConfigError(
            f"beta only applies to the momentum and nesterov rules, "
            f"not {ascent!r}")
    if overshoot is not None and ascent != "deepfool":
        raise ConfigError(
            f"overshoot only applies to the deepfool rule, not {ascent!r}")
    if ascent in ("momentum", "nesterov"):
        beta = DEFAULT_MOMENTUM_BETA if beta is None else beta
        return _RULE_CLASSES[ascent](beta)
    if ascent == "deepfool":
        overshoot = (DEFAULT_DEEPFOOL_OVERSHOOT if overshoot is None
                     else overshoot)
        return DeepFoolRule(overshoot)
    return _RULE_CLASSES[ascent]()

"""The rule-conformance harness: one parametrized suite every ascent
rule must pass.

``RULE_FACTORIES`` below mirrors the rule registry
(:data:`repro.core.ASCENT_RULES`) — a meta-test enforces that every
registered rule has a factory here, so a future rule cannot land
without joining the harness.  The laws (documented in
docs/ARCHITECTURE.md):

1. **Compaction** — per-seed state slices bit-identically under
   retire-and-compact: a seed's update stream in a batch where *other*
   seeds retire at staggered iterations equals its solo stream,
   bit-for-bit.
2. **Identity** — ``identity()`` is a JSON-stable string, equal across
   ``clone()`` and different when a parameter differs.
3. **State round-trip** — ``state_dict()`` survives JSON and
   ``load_state_dict`` mid-ascent, continuing bit-identically.
4. **Clone** — ``clone()`` gives independent state and never carries a
   bound :class:`~repro.core.AscentContext`.
5. **Worker invariance** — float64 campaigns are bit-identical across
   ``workers`` in {1, 2} (kill/resume per rule is pinned in
   ``tests/corpus/test_session_resume.py``).
6. **Coverage folding** — an exhausted seed folds its final tape into
   coverage the same way under every driver.

Context-driven rules (DeepFool) are exercised against fake tapes whose
backward is a broadcast-multiply + per-row sum — bit-reproducible
across batch sizes by construction — so the compaction law is checked
on the rule's own arithmetic, not on BLAS blocking behaviour.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (ASCENT_RULES, AdamRule, AdaptiveStepRule,
                        AscentContext, AscentEngine, Campaign, Constraint,
                        DeepFoolRule, DeepXplore, LightingConstraint,
                        MomentumRule, NesterovRule, PAPER_HYPERPARAMS,
                        VanillaRule)
from repro.errors import ConfigError

#: One representative (non-default where possible) instance per
#: registered rule.  Every harness test parametrizes over this table.
RULE_FACTORIES = {
    "vanilla": lambda: VanillaRule(),
    "momentum": lambda: MomentumRule(0.8),
    "nesterov": lambda: NesterovRule(0.8),
    "adam": lambda: AdamRule(beta1=0.9, beta2=0.99, eps=1e-8),
    "deepfool": lambda: DeepFoolRule(overshoot=0.05),
    "adaptive": lambda: AdaptiveStepRule(MomentumRule(0.7), gamma=0.5,
                                         max_scale=4.0),
}

RULE_NAMES = sorted(RULE_FACTORIES)

#: Per-seed step scales used wherever a rule accepts them (non-uniform
#: on purpose: uniform scales cannot catch mis-sliced scale rows).
SCALES = {i: 0.5 + 0.25 * i for i in range(16)}

X_SHAPE = (2, 3)      # per-seed input shape for the synthetic drives
N_CLASSES = 4
N_MODELS = 2


def test_every_registered_rule_is_harnessed():
    """A rule added to the registry must join this harness."""
    assert sorted(ASCENT_RULES) == RULE_NAMES


# -- synthetic per-seed world -------------------------------------------------
# Everything below is a pure function of (seed_id, iteration), never of
# the batch it runs in — which is exactly what the compaction law needs
# as its ground truth.

def _seed_x(seed_id):
    rng = np.random.default_rng(500 + seed_id)
    return rng.normal(size=X_SHAPE)


def _seed_grad(seed_id, iteration):
    rng = np.random.default_rng(1000 + 97 * seed_id + iteration)
    return rng.normal(size=X_SHAPE)


def _seed_outputs(seed_id, iteration, model):
    rng = np.random.default_rng(2000 + 89 * seed_id + 13 * iteration
                                + model)
    return rng.normal(size=(N_CLASSES,))


def _seed_class_grads(seed_id, iteration, model):
    rng = np.random.default_rng(3000 + 83 * seed_id + 17 * iteration
                                + model)
    return rng.normal(size=(N_CLASSES,) + X_SHAPE)


class FakeTape:
    """Stands in for :class:`repro.nn.tape.ForwardPass` in rule drives.

    ``gradient_of_output`` contracts the per-sample seed matrix against
    stored per-class gradients with a broadcast multiply and a per-row
    sum — each row's result depends only on that row, so batch
    composition cannot perturb any seed's arithmetic.
    """

    def __init__(self, outs, grads):
        self._outs = outs          # (batch, classes)
        self._grads = grads        # (batch, classes, *X_SHAPE)

    @property
    def batch_size(self):
        return self._outs.shape[0]

    @property
    def dtype(self):
        return self._outs.dtype

    def outputs(self):
        return self._outs

    def gradient_of_output(self, seed):
        seed = np.broadcast_to(np.asarray(seed, dtype=self.dtype),
                               self._outs.shape)
        extra = (1,) * len(X_SHAPE)
        return (seed.reshape(seed.shape + extra) * self._grads).sum(axis=1)


def _constrain(grad, x):
    """A nontrivial row-wise stand-in for a domain constraint."""
    out = grad.copy()
    out[:, 0, 0] = 0.0
    return out


def _make_context(active_ids, x, iteration, step=0.1):
    n = len(active_ids)
    tapes = []
    for model in range(N_MODELS):
        outs = np.stack([_seed_outputs(i, iteration, model)
                         for i in active_ids])
        grads = np.stack([_seed_class_grads(i, iteration, model)
                          for i in active_ids])
        tapes.append(FakeTape(outs, grads))
    st = {
        "tapes": tapes,
        "rows": np.arange(n),
        "targets": np.array([i % N_MODELS for i in active_ids]),
        "seed_classes": np.array([i % N_CLASSES for i in active_ids]),
        "x": x,
    }
    return AscentContext(st, step, _constrain, "classification")


def _drive(rule, ids, retire_at=None, iterations=6, scales=None,
           record=None):
    """Run ``rule`` over the synthetic world like ``run_ascent`` would.

    ``retire_at[i] = t`` retires seed ``i`` after its ``t``-th update
    (the compact happens exactly where the engine compacts: between the
    update and the next iteration's gradient).  Returns each seed's
    full update stream.
    """
    retire_at = retire_at or {}
    active = list(ids)
    x = np.stack([_seed_x(i) for i in active])
    if rule.accepts_seed_scales:
        rule.set_seed_scales(
            None if scales is None
            else np.array([scales[i] for i in active]))
    rule.reset(x)
    deltas = {i: [] for i in active}
    for iteration in range(1, iterations + 1):
        if not active:
            break
        rule.bind(_make_context(active, x, iteration))
        grad = _constrain(
            np.stack([_seed_grad(i, iteration) for i in active]), x)
        delta = rule.update(grad)
        for pos, i in enumerate(active):
            deltas[i].append(delta[pos].copy())
        x = x + (delta if rule.absolute_step else 0.1 * delta)
        if record is not None:
            record(rule, iteration, x)
        keep = np.array([retire_at.get(i, iterations + 1) > iteration
                         for i in active])
        if not keep.all():
            x = x[keep]
            rule.compact(keep)
            active = [i for i, k in zip(active, keep) if k]
    rule.bind(None)
    return deltas


# -- law 1: compaction --------------------------------------------------------
@pytest.mark.parametrize("name", RULE_NAMES)
def test_compaction_matches_solo_runs(name):
    """Surviving seeds' update streams are bit-identical whether their
    batch-mates retire around them or they ascend alone."""
    factory = RULE_FACTORIES[name]
    ids = list(range(5))
    retire_at = {0: 2, 1: 5, 2: 3, 4: 4}     # seed 3 never retires
    staggered = _drive(factory(), ids, retire_at=retire_at,
                       scales=SCALES)
    for i in ids:
        solo = _drive(factory(), [i], retire_at={i: retire_at.get(i, 99)},
                      scales=SCALES)
        assert len(staggered[i]) == len(solo[i]) > 0
        for got, want in zip(staggered[i], solo[i]):
            np.testing.assert_array_equal(
                got, want,
                err_msg=f"{name}: seed {i} diverged under compaction")


@pytest.mark.parametrize("name", RULE_NAMES)
def test_compact_slices_state_rows(name):
    """After a compact, the rule keeps exactly the surviving rows of
    every per-seed state array (shape check on the state dict)."""
    rule = RULE_FACTORIES[name]()
    ids = list(range(4))
    x = np.stack([_seed_x(i) for i in ids])
    if rule.accepts_seed_scales:
        rule.set_seed_scales(np.array([SCALES[i] for i in ids]))
    rule.reset(x)
    rule.bind(_make_context(ids, x, 1))
    rule.update(_constrain(
        np.stack([_seed_grad(i, 1) for i in ids]), x))
    rule.compact(np.array([True, False, True, False]))
    rule.bind(None)
    for key, value in rule.state_dict().items():
        if isinstance(value, list) and value \
                and not isinstance(value[0], (int, float)):
            assert len(value) == 2, \
                f"{name}: state {key!r} did not compact to 2 rows"


# -- law 2: identity ----------------------------------------------------------
@pytest.mark.parametrize("name", RULE_NAMES)
def test_identity_roundtrips_through_json(name):
    rule = RULE_FACTORIES[name]()
    identity = rule.identity()
    assert isinstance(identity, str)
    assert json.loads(json.dumps(identity)) == identity
    assert rule.clone().identity() == identity
    assert RULE_FACTORIES[name]().identity() == identity


#: Each registered rule's harness instance (or a rule of another kind)
#: against one that differs in exactly one parameter.
IDENTITY_NEIGHBOURS = {
    "momentum-beta": (MomentumRule(0.8), MomentumRule(0.7)),
    "nesterov-beta": (NesterovRule(0.8), NesterovRule(0.7)),
    "momentum-vs-nesterov": (MomentumRule(0.8), NesterovRule(0.8)),
    "adam-beta1": (AdamRule(beta1=0.9, beta2=0.99, eps=1e-8),
                   AdamRule(beta1=0.8, beta2=0.99, eps=1e-8)),
    "adam-beta2": (AdamRule(beta1=0.9, beta2=0.99, eps=1e-8),
                   AdamRule(beta1=0.9, beta2=0.999, eps=1e-8)),
    "adam-eps": (AdamRule(beta1=0.9, beta2=0.99, eps=1e-8),
                 AdamRule(beta1=0.9, beta2=0.99, eps=1e-7)),
    "deepfool-overshoot": (DeepFoolRule(overshoot=0.05),
                           DeepFoolRule(overshoot=0.02)),
    "adaptive-inner": (AdaptiveStepRule(MomentumRule(0.7), gamma=0.5,
                                        max_scale=4.0),
                       AdaptiveStepRule(MomentumRule(0.8), gamma=0.5,
                                        max_scale=4.0)),
    "adaptive-gamma": (AdaptiveStepRule(MomentumRule(0.7), gamma=0.5,
                                        max_scale=4.0),
                       AdaptiveStepRule(MomentumRule(0.7), gamma=0.25,
                                        max_scale=4.0)),
    "adaptive-max-scale": (AdaptiveStepRule(MomentumRule(0.7), gamma=0.5,
                                            max_scale=4.0),
                           AdaptiveStepRule(MomentumRule(0.7), gamma=0.5,
                                            max_scale=2.0)),
    # Past six significant digits, where a %g rendering would collide.
    "momentum-beta-seventh-digit": (MomentumRule(0.8),
                                    MomentumRule(0.8000001)),
}


@pytest.mark.parametrize("case", sorted(IDENTITY_NEIGHBOURS))
def test_identity_differs_when_a_parameter_differs(case):
    """A fuzz store compares identity strings to refuse a resume under
    another rule, so no two differently-parameterised rules may share
    one."""
    rule, neighbour = IDENTITY_NEIGHBOURS[case]
    assert rule.identity() != neighbour.identity()


# -- law 3: state round-trip --------------------------------------------------
@pytest.mark.parametrize("name", RULE_NAMES)
def test_state_dict_roundtrips_midascent(name):
    """Snapshot a rule mid-ascent through JSON, load the state into a
    fresh rule from the same factory, and continue: both continuations
    are bit-identical.
    """
    factory = RULE_FACTORIES[name]
    ids = [0, 1, 2]

    snapshots = {}

    def record(rule, iteration, x):
        if iteration == 3:
            snapshots["blob"] = json.dumps(
                {"identity": rule.identity(), "state": rule.state_dict()})
            snapshots["x"] = x.copy()

    original = _drive(factory(), ids, iterations=6, scales=SCALES,
                      record=record)
    data = json.loads(snapshots["blob"])
    revived = factory()
    assert revived.identity() == data["identity"]
    revived.load_state_dict(data["state"])
    # Continue the revived rule over iterations 4..6 by hand.
    x = snapshots["x"]
    active = list(ids)
    for iteration in range(4, 7):
        revived.bind(_make_context(active, x, iteration))
        grad = _constrain(
            np.stack([_seed_grad(i, iteration) for i in active]), x)
        delta = revived.update(grad)
        for pos, i in enumerate(active):
            np.testing.assert_array_equal(
                delta[pos], original[i][iteration - 1],
                err_msg=f"{name}: seed {i} diverged after state reload "
                        f"at iteration {iteration}")
        x = x + (delta if revived.absolute_step else 0.1 * delta)
    revived.bind(None)


@pytest.mark.parametrize("name", RULE_NAMES)
def test_state_dict_is_json_serializable(name):
    rule = RULE_FACTORIES[name]()
    ids = [0, 1]
    x = np.stack([_seed_x(i) for i in ids])
    if rule.accepts_seed_scales:
        rule.set_seed_scales(np.array([SCALES[i] for i in ids]))
    rule.reset(x)
    rule.bind(_make_context(ids, x, 1))
    rule.update(_constrain(
        np.stack([_seed_grad(i, 1) for i in ids]), x))
    rule.bind(None)
    json.dumps(rule.state_dict())   # must not raise


# -- law 4: clone -------------------------------------------------------------
@pytest.mark.parametrize("name", RULE_NAMES)
def test_clone_is_independent_and_unbound(name):
    rule = RULE_FACTORIES[name]()
    ids = [0, 1]
    x = np.stack([_seed_x(i) for i in ids])
    if rule.accepts_seed_scales:
        rule.set_seed_scales(np.array([SCALES[i] for i in ids]))
    rule.reset(x)
    context = _make_context(ids, x, 1)
    rule.bind(context)
    grad = _constrain(np.stack([_seed_grad(i, 1) for i in ids]), x)
    rule.update(grad)
    before = json.dumps(rule.state_dict())

    clone = rule.clone()
    assert clone._context is None          # context never crosses clones
    assert rule._context is context        # ...and stays on the original
    assert clone.identity() == rule.identity()
    clone.bind(_make_context(ids, x, 2))
    clone.update(_constrain(
        np.stack([_seed_grad(i, 2) for i in ids]), x))
    assert json.dumps(rule.state_dict()) == before, \
        f"{name}: advancing a clone mutated the original's state"
    rule.bind(None)


# -- law 5: worker invariance -------------------------------------------------
@pytest.mark.parametrize("name", RULE_NAMES)
def test_campaign_worker_invariance(name, mnist_trio, mnist_smoke):
    """Float64 campaigns are bit-identical across workers in {1, 2} for
    every rule (tests, iteration counts, and coverage masks)."""
    seeds, _ = mnist_smoke.sample_seeds(12, np.random.default_rng(21))
    rule = RULE_FACTORIES[name]()
    scales = (np.array([SCALES[i] for i in range(12)])
              if rule.accepts_seed_scales else None)
    results, states = [], []
    for workers in (1, 2):
        campaign = Campaign(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                            LightingConstraint(), workers=workers,
                            shard_size=4, seed=9,
                            rule=RULE_FACTORIES[name]())
        results.append(campaign.run(seeds, seed_scales=scales))
        states.append([t.state_dict() for t in campaign.trackers])
    r1, r2 = results
    assert len(r1.tests) == len(r2.tests) > 0
    for ta, tb in zip(r1.tests, r2.tests):
        assert ta.seed_index == tb.seed_index
        assert ta.iterations == tb.iterations
        np.testing.assert_array_equal(
            ta.x, tb.x,
            err_msg=f"{name}: workers=2 diverged from workers=1")
    for sa, sb in zip(*states):
        np.testing.assert_array_equal(sa["covered"], sb["covered"])


# -- law 6: exhausted-seed coverage folding -----------------------------------
class _FrozenConstraint(Constraint):
    """Zeroes every gradient, so no rule can move a seed off its start.

    The rules this harness covers include ones (DeepFool) that resolve
    every natural mnist seed in a single iteration, so there is no seed
    that exhausts under a real constraint for all rules.  Freezing the
    ascent makes exhaustion deterministic for every rule while leaving
    the part under test — how the final tape folds into coverage —
    untouched.
    """

    name = "frozen"

    def apply(self, grad, x):
        return np.zeros_like(grad)


class TestExhaustedFolding:
    """Every rule folds an exhausted seed's final tape into coverage the
    same way under the batch-of-1 facade and the vectorized driver."""

    @staticmethod
    def _agreeing_seed(trio, dataset):
        """A seed the trio agrees on: frozen ascent must exhaust it.

        Rule-independent — under the frozen constraint no rule moves the
        input, so exhaustion depends only on the seed itself.
        """
        seeds, _ = dataset.sample_seeds(30, np.random.default_rng(3))
        hp = PAPER_HYPERPARAMS["mnist"].with_(max_iterations=1)
        for i in range(seeds.shape[0]):
            engine = AscentEngine(trio, hp, _FrozenConstraint(), rng=5)
            if engine.run(seeds[i][None]).seeds_exhausted == 1:
                return seeds[i][None]
        pytest.fail("no seed the trio agrees on in the smoke sample")

    @pytest.mark.parametrize("name", RULE_NAMES)
    def test_folding_matches_across_drivers(self, name, mnist_trio,
                                            mnist_smoke):
        seed = self._agreeing_seed(mnist_trio, mnist_smoke)
        hp = PAPER_HYPERPARAMS["mnist"].with_(max_iterations=2)
        masks = {}
        for driver in (DeepXplore, AscentEngine):
            engine = driver(mnist_trio, hp, _FrozenConstraint(), rng=5,
                            rule=RULE_FACTORIES[name]())
            result = engine.run(seed)
            assert result.seeds_exhausted == 1 and not result.tests
            masks[driver.__name__] = [t.state_dict()["covered"]
                                      for t in engine.trackers]
        folded = 0
        for a, b in zip(masks["DeepXplore"], masks["AscentEngine"]):
            np.testing.assert_array_equal(
                a, b, err_msg=f"{name}: drivers folded different tapes")
            folded += int(np.asarray(a).sum())
        assert folded > 0


# -- capability flags ---------------------------------------------------------
@pytest.mark.parametrize("name", RULE_NAMES)
def test_seed_scales_refused_unless_accepted(name, mnist_trio,
                                             mnist_smoke):
    rule = RULE_FACTORIES[name]()
    seeds, _ = mnist_smoke.sample_seeds(4, np.random.default_rng(3))
    engine = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                          LightingConstraint(), rng=5, rule=rule)
    scales = np.full(4, 2.0)
    if rule.accepts_seed_scales:
        engine.run(seeds, seed_scales=scales)
        with pytest.raises(ConfigError):    # one scale per seed, always
            engine.run(seeds, seed_scales=scales[:2])
    else:
        with pytest.raises(ConfigError):
            engine.run(seeds, seed_scales=scales)
        with pytest.raises(ConfigError):
            Campaign(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                     LightingConstraint(), seed=9,
                     rule=RULE_FACTORIES[name]()).run(
                         seeds, seed_scales=scales)


@pytest.mark.parametrize("name", RULE_NAMES)
def test_regression_support_is_enforced(name, driving_trio):
    """Rules that declare themselves classification-only are refused at
    engine construction for regression tasks; the rest construct."""
    rule = RULE_FACTORIES[name]()
    if rule.supports_regression:
        AscentEngine(driving_trio, PAPER_HYPERPARAMS["driving"],
                     task="regression", rng=5,
                     rule=RULE_FACTORIES[name]())
    else:
        with pytest.raises(ConfigError):
            AscentEngine(driving_trio, PAPER_HYPERPARAMS["driving"],
                         task="regression", rng=5,
                         rule=RULE_FACTORIES[name]())


def test_adaptive_rejects_bad_compositions():
    with pytest.raises(ConfigError):
        AdaptiveStepRule(AdaptiveStepRule())        # no nesting
    with pytest.raises(ConfigError):
        AdaptiveStepRule(DeepFoolRule())            # absolute-step inner
    with pytest.raises(ConfigError):
        AdaptiveStepRule(gamma=-1.0)
    with pytest.raises(ConfigError):
        AdaptiveStepRule(max_scale=0.5)


def test_adaptive_identity_scale_is_vanilla(mnist_trio, mnist_smoke):
    """adaptive(vanilla) with all-ones scales (or none) is bit-identical
    to the vanilla rule — the decorator adds nothing at scale 1."""
    seeds, _ = mnist_smoke.sample_seeds(8, np.random.default_rng(3))

    def run(rule, **kwargs):
        engine = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                              LightingConstraint(), rng=5, rule=rule)
        return engine.run(seeds, **kwargs)

    vanilla = run(VanillaRule())
    adaptive = run(AdaptiveStepRule(VanillaRule()))
    scaled = run(AdaptiveStepRule(VanillaRule()),
                 seed_scales=np.ones(seeds.shape[0]))
    assert len(vanilla.tests) == len(adaptive.tests) == len(scaled.tests)
    for tv, ta, ts in zip(vanilla.tests, adaptive.tests, scaled.tests):
        np.testing.assert_array_equal(tv.x, ta.x)
        np.testing.assert_array_equal(tv.x, ts.x)


def test_deepfool_needs_context():
    rule = DeepFoolRule()
    with pytest.raises(ConfigError):
        rule.update(np.zeros((2, 2, 2)))


def test_scales_from_energy_mapping():
    rule = AdaptiveStepRule(gamma=0.5, max_scale=4.0)
    scales = rule.scales_from_energy([1.0, 4.0, 0.25, 1e-9])
    assert scales[0] == 1.0          # fresh seed: base step exactly
    assert scales[1] == 0.5          # hot seed steps more carefully
    assert scales[2] == 2.0          # decayed seed escalates
    assert scales[3] == 4.0          # floor clamps at max_scale

"""FuzzSession: resumability, crash recovery, and corpus-reuse economics.

The acceptance contract (ISSUE 4): a session killed at any instant —
including mid-wave, after some tests of the wave were already persisted
— resumes to a corpus *bit-identical* to an uninterrupted run with the
same seed, for workers ∈ {1, 2}; and a second fuzz run over a saved
corpus starts from the persisted coverage and scheduler state, spending
strictly fewer forward passes than the first run did.
"""

import numpy as np
import pytest

from repro.core import (AdamRule, AdaptiveStepRule, DeepFoolRule,
                        LightingConstraint, MomentumRule, NesterovRule,
                        PAPER_HYPERPARAMS)
from repro.corpus import CorpusStore, FuzzSession
from repro.errors import ConfigError
from repro.nn.instrumentation import PassCounter

WAVE, SHARD, SEED, POOL = 8, 4, 7, 16


def make_session(path, models, dataset=None, workers=1, wave_size=WAVE,
                 shard_size=SHARD, seed=SEED, rule=None):
    return FuzzSession(path, models, PAPER_HYPERPARAMS["mnist"],
                       LightingConstraint(), wave_size=wave_size,
                       workers=workers, shard_size=shard_size, seed=seed,
                       rule=rule, dataset=dataset, initial_seed_count=POOL)


def assert_stores_identical(path_a, path_b):
    a, b = CorpusStore(path_a), CorpusStore(path_b)
    assert [dict(e) for e in a.entries()] == [dict(e) for e in b.entries()]
    for entry in a.entries():
        np.testing.assert_array_equal(a.load_input(entry["hash"]),
                                      b.load_input(entry["hash"]))
    cov_a, cov_b = a.coverage_states(), b.coverage_states()
    assert set(cov_a) == set(cov_b)
    for name in cov_a:
        np.testing.assert_array_equal(cov_a[name]["covered"],
                                      cov_b[name]["covered"])
    assert a.fuzz_state() == b.fuzz_state()


def test_fresh_sessions_are_reproducible(tmp_path, mnist_trio, mnist_smoke):
    ra = make_session(tmp_path / "a", mnist_trio, mnist_smoke).run(3)
    rb = make_session(tmp_path / "b", mnist_trio, mnist_smoke).run(3)
    assert ra.new_tests == rb.new_tests > 0
    assert_stores_identical(tmp_path / "a", tmp_path / "b")


@pytest.mark.parametrize("workers", [1, 2])
def test_kill_midwave_then_resume_is_bit_identical(
        tmp_path, mnist_trio, mnist_smoke, monkeypatch, workers):
    """The tentpole invariant: a SIGKILL-style interruption mid-wave —
    after some of the wave's tests already hit the disk but before the
    wave's checkpoint — loses nothing and changes nothing."""
    reference = make_session(tmp_path / "ref", mnist_trio, mnist_smoke,
                             workers=workers)
    reference.run(3)

    killed = make_session(tmp_path / "kill", mnist_trio, mnist_smoke,
                          workers=workers)
    killed.run(1)
    real_add = CorpusStore.add_entry
    test_adds = {"n": 0}

    def bomb(self, x, kind, **meta):
        if kind == "test":
            test_adds["n"] += 1
            if test_adds["n"] > 2:   # die with a wave partially persisted
                raise KeyboardInterrupt("simulated kill")
        return real_add(self, x, kind, **meta)

    monkeypatch.setattr(CorpusStore, "add_entry", bomb)
    with pytest.raises(KeyboardInterrupt):
        killed.run(3)
    monkeypatch.setattr(CorpusStore, "add_entry", real_add)

    resumed = make_session(tmp_path / "kill", mnist_trio, mnist_smoke,
                           workers=workers)
    assert resumed.completed_rounds < 3   # the kill really lost a wave
    resumed.run(3)
    assert_stores_identical(tmp_path / "ref", tmp_path / "kill")


def test_kill_during_initial_pool_draw_then_resume(tmp_path, mnist_trio,
                                                   mnist_smoke, monkeypatch):
    """Regression: a kill while the initial seed pool was being drawn
    used to leave a partial pool that a resumed session silently
    fuzzed as if complete.  The pre-draw checkpoint marker makes the
    resume finish the (deterministic, idempotent) draw instead."""
    make_session(tmp_path / "ref", mnist_trio, mnist_smoke).run(2)

    real_add = CorpusStore.add_entry
    seed_adds = {"n": 0}

    def bomb(self, x, kind, **meta):
        if kind == "seed":
            seed_adds["n"] += 1
            if seed_adds["n"] > 5:   # die with 5 of POOL seeds on disk
                raise KeyboardInterrupt("simulated kill")
        return real_add(self, x, kind, **meta)

    monkeypatch.setattr(CorpusStore, "add_entry", bomb)
    with pytest.raises(KeyboardInterrupt):
        make_session(tmp_path / "kill", mnist_trio, mnist_smoke)
    monkeypatch.setattr(CorpusStore, "add_entry", real_add)
    assert len(CorpusStore(tmp_path / "kill").entries(kind="seed")) == 5

    resumed = make_session(tmp_path / "kill", mnist_trio, mnist_smoke)
    assert len(resumed.store.entries(kind="seed")) == POOL
    resumed.run(2)
    assert_stores_identical(tmp_path / "ref", tmp_path / "kill")


def test_interrupted_pool_draw_needs_a_seed_source(tmp_path, mnist_trio,
                                                   mnist_smoke, monkeypatch):
    real_add = CorpusStore.add_entry

    def bomb(self, x, kind, **meta):
        if kind == "seed":
            raise KeyboardInterrupt("simulated kill")
        return real_add(self, x, kind, **meta)

    monkeypatch.setattr(CorpusStore, "add_entry", bomb)
    with pytest.raises(KeyboardInterrupt):
        make_session(tmp_path / "c", mnist_trio, mnist_smoke)
    monkeypatch.setattr(CorpusStore, "add_entry", real_add)
    # Resuming without a seed source cannot finish the draw.
    with pytest.raises(ConfigError):
        make_session(tmp_path / "c", mnist_trio)
    # Resuming with different pool parameters would draw a different
    # pool than the interrupted session intended.
    with pytest.raises(ConfigError):
        FuzzSession(tmp_path / "c", mnist_trio,
                    PAPER_HYPERPARAMS["mnist"], LightingConstraint(),
                    wave_size=WAVE, shard_size=SHARD, seed=SEED,
                    dataset=mnist_smoke, initial_seed_count=POOL + 1)
    # The matching source finishes the draw and the session runs.
    session = make_session(tmp_path / "c", mnist_trio, mnist_smoke)
    assert len(session.store.entries(kind="seed")) == POOL
    session.run(1)


def test_worker_count_never_changes_the_corpus(tmp_path, mnist_trio,
                                               mnist_smoke):
    make_session(tmp_path / "w1", mnist_trio, mnist_smoke, workers=1).run(3)
    make_session(tmp_path / "w2", mnist_trio, mnist_smoke, workers=2).run(3)
    assert_stores_identical(tmp_path / "w1", tmp_path / "w2")


def test_second_run_reuses_persisted_progress(tmp_path, mnist_trio,
                                              mnist_smoke):
    """Run 2 starts from the saved coverage + scheduler: resolved seeds
    never re-run, so it spends strictly fewer forwards than run 1."""
    with PassCounter() as first:
        session = make_session(tmp_path / "c", mnist_trio, mnist_smoke)
        report1 = session.run(2)
    assert report1.waves_run == 2
    retired = sum(1 for record in session.scheduler.state_dict()["entries"]
                  if record["retired"])
    assert retired > 0            # something resolved, so run 2 must save

    with PassCounter() as second:
        resumed = make_session(tmp_path / "c", mnist_trio, mnist_smoke)
        report2 = resumed.run(4)
    assert resumed.completed_rounds > 2
    # Strictly fewer forward passes and strictly fewer samples pushed
    # through the models, for the same number of waves.
    assert report2.waves_run <= report1.waves_run
    assert second.total_forwards() < first.total_forwards()
    assert (sum(second.forward_samples.values())
            < sum(first.forward_samples.values()))
    # And it really started from the persisted coverage, not from zero.
    persisted = CorpusStore(tmp_path / "c").coverage_states()
    for model, tracker in zip(resumed.models, resumed.trackers):
        assert tracker.covered_count() >= int(
            (persisted[model.name]["covered"]
             & persisted[model.name]["tracked"]).sum())


def test_momentum_fuzzing_is_worker_invariant(tmp_path, mnist_trio,
                                              mnist_smoke):
    """The scenario combination the unified engine unlocked: momentum x
    campaign x corpus-fuzz, still bit-identical across worker counts."""
    make_session(tmp_path / "w1", mnist_trio, mnist_smoke, workers=1,
                 rule=MomentumRule(0.8)).run(3)
    make_session(tmp_path / "w2", mnist_trio, mnist_smoke, workers=2,
                 rule=MomentumRule(0.8)).run(3)
    assert_stores_identical(tmp_path / "w1", tmp_path / "w2")


def test_momentum_resume_is_bit_identical(tmp_path, mnist_trio,
                                          mnist_smoke):
    """`repro fuzz --ascent momentum` interrupted after one round
    resumes to the same corpus an uninterrupted run produces."""
    make_session(tmp_path / "ref", mnist_trio, mnist_smoke, workers=2,
                 rule=MomentumRule(0.8)).run(3)
    make_session(tmp_path / "split", mnist_trio, mnist_smoke, workers=2,
                 rule=MomentumRule(0.8)).run(1)
    resumed = make_session(tmp_path / "split", mnist_trio, mnist_smoke,
                           workers=2, rule=MomentumRule(0.8))
    assert resumed.completed_rounds == 1
    resumed.run(3)
    assert_stores_identical(tmp_path / "ref", tmp_path / "split")


#: One factory per library rule beyond the vanilla/momentum pair the
#: tests above already pin.  Factories, not instances: each session must
#: get its own per-seed state.
RULE_LIBRARY = {
    "nesterov": lambda: NesterovRule(0.8),
    "adam": lambda: AdamRule(),
    "deepfool": lambda: DeepFoolRule(),
    "adaptive": lambda: AdaptiveStepRule(MomentumRule(0.7)),
}


@pytest.mark.parametrize("rule_name", sorted(RULE_LIBRARY))
def test_rule_library_kill_midwave_then_resume(tmp_path, mnist_trio,
                                               mnist_smoke, monkeypatch,
                                               rule_name):
    """The ISSUE-7 acceptance bar: every library rule — including the
    stateful ones (Adam moments, Nesterov velocity) and the ones that
    read engine state (DeepFool tapes, adaptive scheduler feedback) —
    survives a mid-wave kill under workers=2 and resumes to a corpus
    bit-identical to an uninterrupted run."""
    factory = RULE_LIBRARY[rule_name]
    make_session(tmp_path / "ref", mnist_trio, mnist_smoke, workers=2,
                 rule=factory()).run(3)

    killed = make_session(tmp_path / "kill", mnist_trio, mnist_smoke,
                          workers=2, rule=factory())
    killed.run(1)
    real_add = CorpusStore.add_entry
    test_adds = {"n": 0}

    def bomb(self, x, kind, **meta):
        if kind == "test":
            test_adds["n"] += 1
            if test_adds["n"] > 2:   # die with a wave partially persisted
                raise KeyboardInterrupt("simulated kill")
        return real_add(self, x, kind, **meta)

    monkeypatch.setattr(CorpusStore, "add_entry", bomb)
    with pytest.raises(KeyboardInterrupt):
        killed.run(3)
    monkeypatch.setattr(CorpusStore, "add_entry", real_add)

    resumed = make_session(tmp_path / "kill", mnist_trio, mnist_smoke,
                           workers=2, rule=factory())
    assert resumed.completed_rounds < 3
    resumed.run(3)
    assert_stores_identical(tmp_path / "ref", tmp_path / "kill")


@pytest.mark.parametrize("rule_name", sorted(RULE_LIBRARY))
def test_rule_library_resume_requires_matching_rule(tmp_path, mnist_trio,
                                                    mnist_smoke, rule_name):
    """Each library rule's identity() string guards its corpus: a
    resume under any other rule (including vanilla) is refused."""
    factory = RULE_LIBRARY[rule_name]
    make_session(tmp_path / "c", mnist_trio, mnist_smoke,
                 rule=factory()).run(1)
    with pytest.raises(ConfigError):
        make_session(tmp_path / "c", mnist_trio)           # vanilla
    with pytest.raises(ConfigError):
        make_session(tmp_path / "c", mnist_trio,
                     rule=MomentumRule(0.8))
    make_session(tmp_path / "c", mnist_trio, rule=factory())


def test_resume_validates_ascent_rule(tmp_path, mnist_trio, mnist_smoke):
    """The ascent rule is part of a corpus's deterministic identity."""
    make_session(tmp_path / "c", mnist_trio, mnist_smoke,
                 rule=MomentumRule(0.8)).run(1)
    with pytest.raises(ConfigError):
        make_session(tmp_path / "c", mnist_trio)           # vanilla
    with pytest.raises(ConfigError):
        make_session(tmp_path / "c", mnist_trio,
                     rule=MomentumRule(0.5))               # other beta
    # The matching rule resumes fine.
    make_session(tmp_path / "c", mnist_trio, rule=MomentumRule(0.8))
    # And a pre-rule corpus (no "ascent" key in its fuzz state) resumes
    # as vanilla.
    make_session(tmp_path / "legacy", mnist_trio, mnist_smoke).run(1)
    store = CorpusStore(tmp_path / "legacy")
    state = store.fuzz_state()
    assert state.pop("ascent") == "vanilla"
    store.commit(coverage_states=store.coverage_states(), fuzz_state=state)
    make_session(tmp_path / "legacy", mnist_trio)
    with pytest.raises(ConfigError):
        make_session(tmp_path / "legacy", mnist_trio,
                     rule=MomentumRule(0.8))


def test_resume_validates_coverage_accounting(tmp_path, mnist_trio,
                                              mnist_smoke):
    """Exhausted-tape folding is identity: it changes what later waves'
    coverage objectives chase.  Sessions always fold, so a store whose
    fuzz state records the paper's accounting is refused, while one
    from before the key existed resumes."""
    make_session(tmp_path / "c", mnist_trio, mnist_smoke).run(1)
    store = CorpusStore(tmp_path / "c")
    state = store.fuzz_state()
    assert state["absorb_exhausted"] is True
    store.commit(coverage_states=store.coverage_states(),
                 fuzz_state=dict(state, absorb_exhausted=False))
    with pytest.raises(ConfigError):
        make_session(tmp_path / "c", mnist_trio)
    del state["absorb_exhausted"]
    store.commit(coverage_states=store.coverage_states(), fuzz_state=state)
    make_session(tmp_path / "c", mnist_trio)


def test_resume_validates_identity(tmp_path, mnist_trio, mnist_smoke):
    make_session(tmp_path / "c", mnist_trio, mnist_smoke).run(1)
    with pytest.raises(ConfigError):
        make_session(tmp_path / "c", mnist_trio, wave_size=WAVE + 1)
    with pytest.raises(ConfigError):
        make_session(tmp_path / "c", mnist_trio, shard_size=SHARD + 1)
    with pytest.raises(ConfigError):
        make_session(tmp_path / "c", mnist_trio, seed=SEED + 1)
    # Same identity resumes fine, with no dataset needed.
    make_session(tmp_path / "c", mnist_trio)


def test_empty_store_without_seed_source_raises(tmp_path, mnist_trio):
    with pytest.raises(ConfigError):
        make_session(tmp_path / "c", mnist_trio)


def test_session_over_pre_seeded_store(tmp_path, mnist_trio, mnist_smoke):
    """A corpus seeded by another tool (e.g. generate --corpus) fuzzes
    without a dataset: the stored seed entries are the pool."""
    store = CorpusStore(tmp_path / "c")
    seeds, _ = mnist_smoke.sample_seeds(6, np.random.default_rng(0))
    for i, x in enumerate(seeds):
        store.add_entry(x, "seed", origin=int(i))
    session = make_session(tmp_path / "c", mnist_trio)
    report = session.run(1)
    assert report.waves_run == 1
    assert report.waves[0]["wave_size"] == 6


def test_distill_prunes_store_and_scheduler(tmp_path, mnist_trio,
                                            mnist_smoke):
    session = make_session(tmp_path / "c", mnist_trio, mnist_smoke)
    session.run(2)
    tests_before = len(session.store.entries(kind="test"))
    assert tests_before > 0
    kept, dropped = session.distill()
    assert kept + dropped == tests_before
    assert len(session.store.entries(kind="test")) == kept
    # Scheduler pool shrank with the store and the session still runs.
    assert len(session.scheduler) == len(session.store.entries())
    session.run(3)

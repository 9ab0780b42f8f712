"""SeedScheduler: energy rules, deterministic waves, JSON round-trip."""

import json

import pytest

from repro.corpus import (ENERGY_EPSILON, INITIAL_ENERGY, NOVELTY_WEIGHT,
                          SeedScheduler, VISIT_DECAY)
from repro.errors import ConfigError


def retired_count(scheduler):
    """How many of ``scheduler``'s entries are retired."""
    return sum(1 for record in scheduler.state_dict()["entries"]
               if record["retired"])


def _scheduler(n=5):
    scheduler = SeedScheduler()
    for i in range(n):
        scheduler.add(f"seed{i}")
    return scheduler


def test_new_seeds_enter_hot_in_insertion_order():
    scheduler = _scheduler(4)
    assert scheduler.next_wave(10) == ["seed0", "seed1", "seed2", "seed3"]
    assert scheduler.next_wave(2) == ["seed0", "seed1"]
    assert scheduler.stats("seed0")["energy"] == INITIAL_ENERGY


def test_add_is_idempotent_and_archives_tests():
    scheduler = _scheduler(2)
    assert not scheduler.add("seed0")            # already known
    scheduler.add("test0", schedulable=False)
    assert scheduler.stats("test0")["retired"]
    assert "test0" not in scheduler.next_wave(10)
    assert scheduler.pending_count() == 2
    assert retired_count(scheduler) == 1


def test_yielding_seed_retires():
    scheduler = _scheduler(3)
    scheduler.record_wave(["seed0", "seed1"], yielded={"seed0"},
                          novelty_fraction=0.1)
    assert scheduler.stats("seed0")["retired"]
    assert scheduler.stats("seed0")["energy"] == 0.0
    assert "seed0" not in scheduler.next_wave(10)
    assert not scheduler.stats("seed1")["retired"]


def test_dry_visits_decay_then_exhaust():
    scheduler = _scheduler(1)
    expected = INITIAL_ENERGY
    visits = 0
    while expected * VISIT_DECAY > ENERGY_EPSILON:
        scheduler.record_wave(["seed0"], yielded=set(), novelty_fraction=0.0)
        expected *= VISIT_DECAY
        visits += 1
        assert scheduler.stats("seed0")["energy"] == expected
        assert not scheduler.stats("seed0")["retired"]
    # The sixth dry visit lands exactly on ENERGY_EPSILON and retires
    # the seed (the documented "six dry visits" rule).
    scheduler.record_wave(["seed0"], yielded=set(), novelty_fraction=0.0)
    assert scheduler.stats("seed0")["retired"]
    assert scheduler.stats("seed0")["visits"] == visits + 1 == 6
    assert scheduler.next_wave(10) == []


def test_novelty_keeps_productive_regions_hot():
    scheduler = _scheduler(2)
    scheduler.record_wave(["seed0"], yielded=set(), novelty_fraction=0.5)
    boosted = INITIAL_ENERGY * VISIT_DECAY * (1 + NOVELTY_WEIGHT * 0.5)
    assert scheduler.stats("seed0")["energy"] == boosted
    # Higher energy now schedules ahead of the untouched seed1.
    assert scheduler.next_wave(2) == ["seed0", "seed1"]
    scheduler.record_wave(["seed1"], yielded=set(), novelty_fraction=0.0)
    assert scheduler.next_wave(2) == ["seed0", "seed1"]
    assert scheduler.stats("seed1")["energy"] < boosted


def test_wave_size_validated():
    with pytest.raises(ConfigError):
        _scheduler().next_wave(0)


def test_state_roundtrips_through_json_bit_identically():
    scheduler = _scheduler(6)
    scheduler.add("test0", schedulable=False)
    scheduler.record_wave(["seed0", "seed1", "seed2"], yielded={"seed1"},
                          novelty_fraction=1 / 3)
    scheduler.record_wave(["seed0", "seed3"], yielded=set(),
                          novelty_fraction=0.013)
    state = json.loads(json.dumps(scheduler.state_dict()))
    clone = SeedScheduler.from_state(state)
    for i in range(6):
        assert clone.stats(f"seed{i}") == scheduler.stats(f"seed{i}")
    assert clone.next_wave(4) == scheduler.next_wave(4)

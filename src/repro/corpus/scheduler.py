"""Coverage-guided seed scheduling (the fuzzer's priority queue).

libFuzzer-style energy assignment over corpus entries: seeds that keep
paying (novel coverage, fresh differences nearby) stay hot, seeds that
stop paying decay away, and seeds that already produced a
difference-inducing test retire — re-ascending them burns forwards to
rediscover what the store already holds.  This is what makes a second
``repro fuzz`` run over a saved corpus *strictly cheaper* than the
first: the resolved part of the pool is never re-run.

Energy rules (see docs/CORPUS.md for the worked example):

1. A new seed enters with energy ``INITIAL_ENERGY`` (1.0).
2. Each time a seed is scheduled its energy is multiplied by
   ``VISIT_DECAY`` (0.5) — unproductive seeds halve away.
3. If the wave it ran in covered new neurons, each surviving scheduled
   seed's energy is additionally scaled by ``1 + NOVELTY_WEIGHT * f``
   where ``f`` is the fraction of tracked neurons newly covered — seeds
   sitting in productive regions get revisited sooner.
4. A seed whose ascent yielded a difference-inducing test (or that
   pre-disagreed) retires: energy 0, never rescheduled.  Its test is
   archived in the store for regression value.
5. Energy at or below ``ENERGY_EPSILON`` (1/64 — reached by the sixth
   dry visit) retires the seed as exhausted.

Everything is deterministic: energies are pure functions of the wave
history, ties break by store insertion order, and the whole state
round-trips through JSON (``state_dict``/``load_state_dict``) so a
checkpointed session resumes with bit-identical scheduling decisions.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["SeedScheduler", "INITIAL_ENERGY", "VISIT_DECAY",
           "NOVELTY_WEIGHT", "ENERGY_EPSILON"]

INITIAL_ENERGY = 1.0
VISIT_DECAY = 0.5
NOVELTY_WEIGHT = 4.0
ENERGY_EPSILON = 1.0 / 64.0


class SeedScheduler:
    """Deterministic energy-based priority queue over corpus entries."""

    def __init__(self):
        self._stats = {}    # hash -> {energy, visits, retired}, insertion order

    # -- pool management ----------------------------------------------------
    def add(self, entry_hash, schedulable=True):
        """Register one corpus entry; returns True if it was new.

        ``schedulable=False`` archives the entry immediately (generated
        tests enter this way: they are already difference-inducing, so
        ascending from them again cannot find anything the store does
        not hold).
        """
        if entry_hash in self._stats:
            return False
        self._stats[entry_hash] = {
            "energy": INITIAL_ENERGY if schedulable else 0.0,
            "visits": 0,
            "retired": not schedulable,
        }
        return True

    def __contains__(self, entry_hash):
        return entry_hash in self._stats

    def __len__(self):
        return len(self._stats)

    def stats(self, entry_hash):
        return dict(self._stats[entry_hash])

    def pending_count(self):
        """Entries still eligible for scheduling."""
        return sum(1 for s in self._stats.values()
                   if not s["retired"] and s["energy"] >= ENERGY_EPSILON)

    # -- scheduling ---------------------------------------------------------
    def next_wave(self, wave_size):
        """The next wave: up to ``wave_size`` hashes, hottest first.

        Sorting is stable on (-energy, insertion order), so equal-energy
        seeds run in the order they entered the corpus — the whole
        schedule is a pure function of the recorded history.
        """
        if wave_size < 1:
            raise ConfigError(f"wave_size must be >= 1, got {wave_size}")
        candidates = [
            (stats["energy"], order, entry_hash)
            for order, (entry_hash, stats) in enumerate(self._stats.items())
            if not stats["retired"] and stats["energy"] >= ENERGY_EPSILON]
        candidates.sort(key=lambda c: (-c[0], c[1]))
        return [entry_hash for _, _, entry_hash in candidates[:wave_size]]

    def record_wave(self, wave, yielded, novelty_fraction):
        """Fold one executed wave back into the pool.

        ``wave`` is the scheduled hash list, ``yielded`` the subset that
        produced a difference-inducing test, ``novelty_fraction`` the
        fraction of tracked neurons the wave newly covered (across all
        models).
        """
        yielded = set(yielded)
        boost = 1.0 + NOVELTY_WEIGHT * float(novelty_fraction)
        for entry_hash in wave:
            stats = self._stats[entry_hash]
            stats["visits"] += 1
            if entry_hash in yielded:
                stats["energy"] = 0.0
                stats["retired"] = True
                continue
            stats["energy"] *= VISIT_DECAY * boost
            if stats["energy"] <= ENERGY_EPSILON:
                stats["energy"] = 0.0
                stats["retired"] = True

    # -- persistence --------------------------------------------------------
    # Energies are products of exactly-representable factors operated on
    # in IEEE double; Python's json round-trips doubles exactly, so a
    # reloaded scheduler makes bit-identical decisions.

    def state_dict(self):
        return {"entries": [dict(stats, hash=entry_hash)
                            for entry_hash, stats in self._stats.items()]}

    @classmethod
    def from_state(cls, state):
        scheduler = cls()
        for record in state["entries"]:
            entry_hash = record["hash"]
            scheduler._stats[entry_hash] = {
                "energy": float(record["energy"]),
                "visits": int(record["visits"]),
                "retired": bool(record["retired"]),
            }
        return scheduler

"""Deterministic random-number-generator plumbing.

All stochastic code in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  Centralising the conversion here keeps
every experiment reproducible: the same seed always yields the same
datasets, initial weights, and generated test inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_rng", "spawn_seed_sequences", "rng_from_seed_sequence"]


def as_rng(seed_or_rng=None):
    """Return a :class:`numpy.random.Generator` for ``seed_or_rng``.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def spawn_seed_sequences(seed, count):
    """``count`` independent child :class:`numpy.random.SeedSequence`\\ s.

    This is the sharding primitive of campaign runs: the children depend
    only on ``seed`` (an int or a ``SeedSequence``) and their position,
    never on how many worker processes execute them or in which order —
    shard ``i`` draws the same random stream whether it runs first on one
    worker or last on eight.  SeedSequence objects are picklable, so they
    travel to worker processes as-is and are turned into generators at
    the point of use with :func:`rng_from_seed_sequence`.
    """
    if isinstance(seed, np.random.SeedSequence):
        # Spawn from a reconstructed copy: SeedSequence.spawn advances
        # the parent's n_children_spawned, and mutating the caller's
        # sequence would make repeated spawns draw different children —
        # they must depend only on (entropy, spawn_key) and position.
        seed = np.random.SeedSequence(entropy=seed.entropy,
                                      spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    else:
        seed = np.random.SeedSequence(seed)
    return seed.spawn(int(count))


def rng_from_seed_sequence(seed_sequence):
    """Instantiate the generator for one spawned child sequence."""
    return np.random.default_rng(seed_sequence)

"""The engine selector behind ``repro generate``'s ``--engine`` flag.

Lives in ``core`` (not the experiments layer) because it composes only
core objects: the :class:`~repro.core.engine.DeepXplore` facade, the
vectorized :class:`~repro.core.engine.AscentEngine`, and the
:class:`~repro.core.campaign.Campaign` runner.  A separate module
rather than ``engine.py`` itself so the engine module never imports the
campaign layer built on top of it.
"""

from __future__ import annotations

import numpy as np

from repro.core.campaign import Campaign
from repro.core.engine import AscentEngine, DeepXplore
from repro.errors import ConfigError
from repro.nn.config import network_from_payload, network_to_payload

__all__ = ["make_engine", "resolve_models"]


def resolve_models(models, dtype=None):
    """The models at compute precision ``dtype``.

    A model stored at another precision is rebuilt through the payload
    round-trip (:func:`repro.nn.config.network_from_payload`), so the
    originals are never mutated and trackers bound to them stay valid.
    Models already at ``dtype`` — every model, when ``dtype`` is
    ``None`` — come back as the same objects.
    """
    if dtype is None:
        return list(models)
    dtype = np.dtype(dtype)
    return [m if m.dtype == dtype
            else network_from_payload(network_to_payload(m), dtype=dtype)
            for m in models]


def make_engine(engine, models, hp, constraint, task, rng, workers=1,
                shard_size=None, trackers=None, rule=None):
    """Build a generation engine from CLI-flag-shaped knobs.

    ``engine`` is ``"sequential"`` (Algorithm 1 as the paper runs it,
    one seed at a time), ``"batch"`` (the vectorized
    :class:`~repro.core.AscentEngine`, same yield at a fraction of the
    wall-clock), or ``"campaign"`` (sharded across ``workers``
    processes).  Campaign runs derive their determinism from a root
    seed, so ``rng`` must be an integer or a
    :class:`numpy.random.SeedSequence` (so drivers that spawn per-round
    children, like fuzz waves, can pass one through) for that engine;
    ``shard_size`` (campaign only) defaults to the campaign's own.

    ``rule`` is the per-iteration update rule (an
    :class:`~repro.core.AscentRule`, e.g. from
    :func:`repro.core.make_rule`; vanilla when ``None``) — every engine
    accepts every rule.  The models must already be at their compute
    precision (:func:`resolve_models`), with any ``trackers`` built over
    them.
    """
    if engine == "sequential":
        return DeepXplore(models, hp, constraint, task=task, rng=rng,
                          trackers=trackers, rule=rule)
    if engine == "batch":
        return AscentEngine(models, hp, constraint, task=task, rng=rng,
                            trackers=trackers, rule=rule)
    if engine == "campaign":
        if isinstance(rng, (int, np.integer)):
            seed = int(rng)
        elif isinstance(rng, np.random.SeedSequence):
            seed = rng
        else:
            raise ConfigError(
                "campaign engine needs an integer seed or a SeedSequence")
        kwargs = {} if shard_size is None else {"shard_size": shard_size}
        return Campaign(models, hp, constraint, task=task, workers=workers,
                        seed=seed, trackers=trackers, rule=rule, **kwargs)
    raise ConfigError(
        f"unknown engine {engine!r}; known: sequential, batch, campaign")

"""The one engine selector shared by experiments, examples, and the CLI.

Lives in ``core`` (not the experiments layer) because it composes only
core objects: the :class:`~repro.core.engine.DeepXplore` facade, the
vectorized :class:`~repro.core.engine.AscentEngine`, the
:class:`~repro.core.campaign.Campaign` runner, and
:func:`~repro.core.engine.make_rule`.  A separate module rather than
``engine.py`` itself so the engine module never imports the campaign
layer built on top of it.
"""

from __future__ import annotations

import numpy as np

from repro.core.campaign import Campaign
from repro.core.engine import AscentEngine, DeepXplore, make_rule
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
                shard_size=None, trackers=None, ascent="vanilla",
                beta=None, overshoot=None, absorb_exhausted=True,
                dtype=None):
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

    ``ascent``/``beta``/``overshoot`` pick the per-iteration update
    rule (:func:`repro.core.make_rule`) — every engine accepts every
    rule, so e.g. momentum or deepfool compose with campaigns and fuzz
    waves.  Rule-specific flags are validated there (``beta`` is
    momentum/nesterov-only, ``overshoot`` deepfool-only).
    ``absorb_exhausted=False`` selects the paper-exact coverage
    accounting (only difference-inducing inputs fold into coverage) on
    whichever engine is built.

    ``dtype`` requests a compute precision, resolved through
    :func:`resolve_models`.  When ``dtype`` changes the models, any
    caller-built ``trackers`` would still be bound to the originals, so
    that combination is refused — build trackers over
    ``resolve_models(...)``'s output instead (or let the engine build
    its own).
    """
    if dtype is not None:
        resolved = resolve_models(models, dtype=dtype)
        converted = any(r is not m for r, m in zip(resolved, models))
        if converted and trackers is not None:
            raise ConfigError(
                "dtype conversion rebuilds the models, which would orphan "
                "the caller-built trackers; call resolve_models() first "
                "and build trackers over its output")
        models = resolved
    rule = make_rule(ascent, beta=beta, overshoot=overshoot)
    if engine == "sequential":
        return DeepXplore(models, hp, constraint, task=task, rng=rng,
                          trackers=trackers, rule=rule,
                          absorb_exhausted=absorb_exhausted)
    if engine == "batch":
        return AscentEngine(models, hp, constraint, task=task, rng=rng,
                            trackers=trackers, rule=rule,
                            absorb_exhausted=absorb_exhausted)
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
                        seed=seed, trackers=trackers, rule=rule,
                        absorb_exhausted=absorb_exhausted, **kwargs)
    raise ConfigError(
        f"unknown engine {engine!r}; known: sequential, batch, campaign")

"""Forward/backward pass counting.

:meth:`repro.nn.network.Network.run` notifies every active counter once
per executed forward pass, and :class:`repro.nn.tape.ForwardPass` does
the same for each backward derived from a tape.  Counters are installed
with a context manager rather than as state on the :class:`Network`, so
instrumentation never adds mutable per-network state — the tape refactor
exists precisely to keep networks stateless between calls.

>>> with PassCounter() as counter:
...     net.predict(x)
>>> counter.forwards[net.name]
1

``benchmarks/test_forward_reuse.py`` uses this to assert the generation
engines execute exactly one forward pass per model per ascent iteration.

Passes that run in a campaign pool's engine processes are counted there
and sent back with each shard's outcome; :func:`record_counts` adds
them to the counters installed in the caller's process, so a counter
sees the same passes whether a campaign ran in-process or pooled.
"""

from __future__ import annotations

import threading
from collections import Counter

__all__ = ["PassCounter", "PayloadCounter", "record_forward",
           "record_backward", "record_deserialization", "record_counts"]

#: Currently installed counters (innermost last).  Module-level on
#: purpose: counting must work without threading a counter object through
#: every engine API.
_ACTIVE = []

#: Installed payload counters (see :class:`PayloadCounter`).
_ACTIVE_PAYLOAD = []

#: Held for every update: farm worker threads add their shards' counts
#: to the same counters at once, and ``+=`` on a ``Counter`` entry is a
#: read-modify-write.
_LOCK = threading.Lock()

#: The per-network counts a :class:`PassCounter` keeps.
_PASS_COUNTS = ("forwards", "forward_samples", "backwards")


def record_forward(network, batch_size):
    """Notify active counters that ``network`` ran one forward pass."""
    if _ACTIVE:
        with _LOCK:
            for counter in _ACTIVE:
                counter.forwards[network.name] += 1
                counter.forward_samples[network.name] += int(batch_size)


def record_backward(network):
    """Notify active counters that one backward was derived on ``network``."""
    if _ACTIVE:
        with _LOCK:
            for counter in _ACTIVE:
                counter.backwards[network.name] += 1


def record_deserialization(name):
    """Notify payload counters that one model payload was rebuilt.

    Called by :func:`repro.nn.config.network_from_payload` — the
    weights-and-all reconstruction each campaign engine process pays
    once, when it starts, and every dtype conversion pays per model.
    """
    if _ACTIVE_PAYLOAD:
        with _LOCK:
            for counter in _ACTIVE_PAYLOAD:
                counter.deserializations[name] += 1


def record_counts(counts):
    """Add counts taken in another process to every active counter.

    ``counts`` is what :meth:`PassCounter.counts` or
    :meth:`PayloadCounter.counts` returned there: counter attribute ->
    ``{network name: n}``.
    """
    with _LOCK:
        for counter in _ACTIVE:
            for key in _PASS_COUNTS:
                getattr(counter, key).update(counts.get(key, {}))
        for counter in _ACTIVE_PAYLOAD:
            counter.deserializations.update(
                counts.get("deserializations", {}))


class PassCounter:
    """Counts forward/backward passes per network name while installed.

    Attributes
    ----------
    forwards / backwards:
        ``Counter`` mapping network name to number of passes.
    forward_samples:
        Same keys, but summing the batch sizes of the forward passes.
    """

    def __init__(self):
        self.forwards = Counter()
        self.backwards = Counter()
        self.forward_samples = Counter()

    def reset(self):
        self.forwards.clear()
        self.backwards.clear()
        self.forward_samples.clear()

    def total_forwards(self):
        return int(sum(self.forwards.values()))

    def total_backwards(self):
        return int(sum(self.backwards.values()))

    def counts(self):
        """Plain per-network counts, for :func:`record_counts`."""
        return {key: dict(getattr(self, key)) for key in _PASS_COUNTS}

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.remove(self)
        return False

    def __repr__(self):
        return (f"PassCounter(forwards={dict(self.forwards)}, "
                f"backwards={dict(self.backwards)})")


class PayloadCounter:
    """Counts model-payload deserializations per network name.

    In-process campaign shards run on the caller's models and rebuild
    nothing; a pool's engine process rebuilds each model from its pickled
    payload once, when it starts, and reports the rebuilds to the
    caller's counters.  This counter is how tests pin that:

    >>> with PayloadCounter() as counter:
    ...     session.run(rounds)    # workers=1
    >>> counter.total()            # == 0
    """

    def __init__(self):
        self.deserializations = Counter()

    def total(self):
        return int(sum(self.deserializations.values()))

    def reset(self):
        self.deserializations.clear()

    def counts(self):
        """Plain per-network counts, for :func:`record_counts`."""
        return {"deserializations": dict(self.deserializations)}

    def __enter__(self):
        _ACTIVE_PAYLOAD.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_PAYLOAD.remove(self)
        return False

    def __repr__(self):
        return f"PayloadCounter({dict(self.deserializations)})"

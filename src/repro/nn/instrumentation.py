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
"""

from __future__ import annotations

from collections import Counter

__all__ = ["PassCounter", "PayloadCounter", "record_forward",
           "record_backward", "record_deserialization"]

#: Currently installed counters (innermost last).  Module-level on
#: purpose: counting must work without threading a counter object through
#: every engine API.
_ACTIVE = []

#: Installed payload counters (see :class:`PayloadCounter`).
_ACTIVE_PAYLOAD = []


def record_forward(network, batch_size):
    """Notify active counters that ``network`` ran one forward pass."""
    for counter in _ACTIVE:
        counter.forwards[network.name] += 1
        counter.forward_samples[network.name] += int(batch_size)


def record_backward(network):
    """Notify active counters that one backward was derived on ``network``."""
    for counter in _ACTIVE:
        counter.backwards[network.name] += 1


def record_deserialization(name):
    """Notify payload counters that one model payload was rebuilt.

    Called by :func:`repro.nn.config.network_from_payload` — the
    weights-and-all reconstruction each campaign pool worker pays once,
    when it starts, and every dtype conversion pays per model.
    """
    for counter in _ACTIVE_PAYLOAD:
        counter.deserializations[name] += 1


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
    nothing; a pool worker process rebuilds each model from its pickled
    payload once, when it starts.  This counter is how tests pin that:

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

    def __enter__(self):
        _ACTIVE_PAYLOAD.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_PAYLOAD.remove(self)
        return False

    def __repr__(self):
        return f"PayloadCounter({dict(self.deserializations)})"

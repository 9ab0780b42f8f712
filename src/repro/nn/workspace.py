"""Preallocated scratch buffers reused across forward/backward passes.

The ascent loop calls ``network.run`` hundreds of times per seed batch
with identical shapes (the batch only ever *shrinks* as seeds resolve).
Without reuse every iteration would reallocate the same im2col column
matrix, conv output, pooling scatter buffer, and gradient arrays —
allocation and page-faulting costs that rival the GEMMs at smoke scale.

A :class:`Workspace` is a dict of flat 1-D arrays keyed by
``(id(layer), tag)``.  Layers request views via :meth:`get`; a request
that fits inside an existing buffer is served as a reshaped view of its
prefix (so a shrinking batch never reallocates), otherwise the buffer is
grown.  Every pass draws its buffers from one: the caller's, or a fresh
one that :meth:`~repro.nn.network.Network.run` makes for that pass.
Layers never store the workspace — it is threaded through
``forward(x, workspace=...)`` and carried to ``backward`` inside the
immutable ctx tuple, which keeps the "no residual state on layers"
guarantee intact.

The trade-off is aliasing: arrays handed out by a workspace are only
valid until the **next** forward/backward that reuses the same buffers.
:class:`~repro.nn.tape.ForwardPass` copies the input gradient it
returns, the ascent engine consumes each tape's gradients before
running the next forward, and ``Trainer.fit`` finishes each step's
backward before the next step's forward, so neither loop observes a
stale view.  Backwards from one tape share its workspace's scratch
buffers, so one thread at a time takes them.  Code that holds tapes
across forwards (tests, notebooks) should simply not pass a workspace:
each such pass then owns its buffers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Size-elastic scratch-buffer pool for one network's passes."""

    __slots__ = ("_buffers", "allocations")

    def __init__(self):
        self._buffers = {}
        #: Number of backing allocations performed (for reuse tests).
        self.allocations = 0

    def get(self, key, shape, dtype):
        """An uninitialised array of ``shape``/``dtype`` for ``key``.

        Reuses (a prefix of) the existing backing buffer when it is
        large enough and of the same dtype; contents are undefined.
        """
        size = 1
        for dim in shape:
            size *= dim
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = np.empty(max(size, 1), dtype=dtype)
            self._buffers[key] = buf
            self.allocations += 1
        return buf[:size].reshape(shape)

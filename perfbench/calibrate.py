"""Host-speed calibration: timings in reference seconds.

This benchmark runs on small shared VMs whose speed swings by up to 2x
within a minute as other guests load the host: a fixed CPU loop timed
in one-second windows varies with an interquartile range of about 20%.
No wall-clock metric is steady under that.

A :class:`Calibrator` therefore times a fixed calibration loop — the
same mix of interpreter work, small matrix products, hashing and JSON
the workloads do — right before and right after every measured
interval, and rescales the interval by how much slower than
:data:`REFERENCE_S` the loop ran around it.  Contention that slows the
workload slows the loop too, and cancels; a change to the program does
not touch the loop, and shows in full.  Reported timings are
"reference seconds": wall seconds on the host as fast as it was when
the reference was taken.  The raw wall seconds are reported alongside.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

__all__ = ["Calibrator", "REFERENCE_S", "REPEAT"]

#: Median duration of one calibration loop on the reference host (a
#: 2-vCPU Xeon VM, numpy on single-threaded OpenBLAS).
REFERENCE_S = 0.004

#: Loops per speed sample: one loop's duration alone varies by 30-40%
#: (interquartile range over median) on the reference host.
REPEAT = 3


class Calibrator:
    """Times the calibration loop and rescales intervals by it."""

    def __init__(self, reference=REFERENCE_S, clock=time.perf_counter):
        self.reference = float(reference)
        self.clock = clock
        rng = np.random.default_rng(0)
        self._a = rng.random((2304, 25), dtype=np.float32)
        self._b = rng.random((25, 6), dtype=np.float32)
        self._c = rng.random((256, 150), dtype=np.float64)
        self._d = rng.random((150, 16), dtype=np.float64)
        self._blob = rng.bytes(1 << 18)
        self._doc = {"entries": [{"hash": f"{i:064x}", "kind": "seed",
                                  "origin": i} for i in range(256)]}
        self._last = None
        #: Seconds spent in calibration loops (not program work).
        self.spent = 0.0

    def loop(self):
        """Run the calibration loop once; returns its duration."""
        start = self.clock()
        counts = {}
        for i in range(6000):
            counts[i & 63] = counts.get(i & 63, 0) + i
        for _ in range(24):
            product = self._a @ self._b
            np.maximum(product, 0.0, out=product)
            (self._c @ self._d).sum()
        hashlib.sha256(self._blob).digest()
        json.loads(json.dumps(self._doc, sort_keys=True))
        elapsed = self.clock() - start
        self.spent += elapsed
        return elapsed

    def sample(self):
        """Mean duration of :data:`REPEAT` loops run back to back."""
        return sum(self.loop() for _ in range(REPEAT)) / REPEAT

    def measure(self, fn):
        """Run ``fn()``; returns ``(result, reference_s, wall_s)``.

        The wall seconds are rescaled by :data:`REFERENCE_S` over the
        mean duration of the loops timed just before and just after
        ``fn`` (:meth:`sample` each side).
        """
        if self._last is None:
            self._last = self.sample()
        start = self.clock()
        result = fn()
        elapsed = self.clock() - start
        after = self.sample()
        scale = self.reference / ((self._last + after) / 2.0)
        self._last = after
        return result, elapsed * scale, elapsed

"""Traditional line coverage of the prediction code path (paper Table 6).

The paper contrasts neuron coverage with the line coverage of "the Python
code used in the training and testing process": a handful of inputs
executes 100% of the code while activating a small fraction of neurons.
This module reproduces that measurement for our numpy substrate using a
``sys.settrace`` line tracer scoped to the :mod:`repro.nn` sources.

Because the forward path of a *fixed architecture* executes the same lines
for every input, the natural denominator is the set of lines a reference
input set executes (the lines that are dynamically reachable for this
model).  That is exactly the phenomenon Table 6 demonstrates: code
coverage saturates immediately, independent of which inputs are chosen.
"""

from __future__ import annotations

import os
import sys

import repro.nn as _nn_package

__all__ = ["CodeCoverage"]

_NN_DIR = os.path.dirname(_nn_package.__file__)


class CodeCoverage:
    """Line coverage of the model's forward/predict code path."""

    def __init__(self, network):
        self.network = network

    # -- tracing ----------------------------------------------------------------
    def lines_executed(self, x):
        """Set of ``(filename, lineno)`` in repro.nn hit by ``predict(x)``."""
        hits = set()

        def tracer(frame, event, arg):
            filename = frame.f_code.co_filename
            if not filename.startswith(_NN_DIR):
                return None
            if event == "line":
                hits.add((filename, frame.f_lineno))
            return tracer

        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            self.network.predict(x)
        finally:
            sys.settrace(old)
        return hits

    # -- coverage -----------------------------------------------------------------
    def coverage(self, x, reference=None):
        """Fraction of prediction-path lines executed by ``x``.

        The denominator is the lines ``x`` executes, united with the
        lines a ``reference`` input set executes when one is given.
        """
        executed = self.lines_executed(x)
        if reference is None:
            total = executed
        else:
            total = executed | self.lines_executed(reference)
        if not total:
            return 0.0
        return len(executed & total) / len(total)

"""Joint-optimization objectives (paper §4.2, Equations 2-3).

``obj_joint(x) = (sum_{k != j} F_k(x)[c] - lambda1 * F_j(x)[c])
                 + lambda2 * f_n(x)``

The first term pushes one randomly chosen DNN ``F_j`` away from the seed
class ``c`` while holding the others on it; the second pushes a currently
inactivated neuron ``n`` (one per model, re-picked every iteration) above
the activation threshold.  Every term is differentiable, so the whole
objective's input-gradient is the sum of per-term input-gradients.

The engine evaluates the objective on the iteration's recorded
:class:`~repro.nn.tape.ForwardPass` tapes: it builds obj1's output seed
per sample and hands the neurons a :class:`CoverageObjective` picks to
the same backward sweep
(:meth:`~repro.nn.tape.ForwardPass.gradient_joint`), so one forward and
one backward per model per iteration serve the whole objective.  What
lives here is the part with state: the per-iteration neuron choice.
"""

from __future__ import annotations

from repro.utils.rng import as_rng

__all__ = ["CoverageObjective"]


class CoverageObjective:
    """obj2: the summed output of one inactivated neuron per model.

    Algorithm 1 line 33 re-picks the neurons each iteration; the engine
    calls :meth:`pick` per iteration and carries the picks on obj1's
    backward sweep.
    """

    def __init__(self, trackers, rng=None):
        self.trackers = list(trackers)
        self.rng = as_rng(rng)

    def pick(self):
        """Choose an uncovered neuron per model; returns the choices."""
        return [t.pick_uncovered(self.rng) for t in self.trackers]

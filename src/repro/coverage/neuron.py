"""Neuron coverage (paper §4.1).

A neuron is *covered* by a test set if its output exceeds threshold ``t``
for at least one input.  Following §7.1 of the paper, each layer's neuron
outputs are (optionally, on by default) scaled to ``[0, 1]`` per input —
``(out - min(out)) / (max(out) - min(out))`` over the layer's neuron
vector — so one threshold is meaningful across layers whose raw output
ranges differ.

Trackers accept either raw inputs (a fresh forward pass is executed) or
a :class:`~repro.nn.tape.ForwardPass` tape recorded by the caller, so a
generation engine that already ran the network for its objectives can
fold the same execution into coverage for free.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoverageError
from repro.nn.tape import ForwardPass, scale_layerwise
from repro.utils.rng import as_rng

__all__ = ["NeuronCoverageTracker", "scale_layerwise", "coverage_of_inputs",
           "raw_activations", "check_states_compatible", "merge_state_dicts"]


def check_states_compatible(a, b):
    """Raise :class:`CoverageError` unless two tracker snapshots are merge-
    compatible (same network name, neuron count, threshold/scaling, and
    tracked-layer mask).

    Snapshot-level — no :class:`~repro.nn.network.Network` object needed —
    so persisted coverage (e.g. a corpus store's ``coverage/*.npz``) can be
    validated and merged without rebuilding models.
    """
    if (a["network"] != b["network"]
            or int(a["total_neurons"]) != int(b["total_neurons"])):
        raise CoverageError(
            f"cannot merge coverage of network {b['network']!r} "
            f"({b['total_neurons']} neurons) into coverage of "
            f"{a['network']!r} ({a['total_neurons']})")
    if (float(a["threshold"]) != float(b["threshold"])
            or bool(a["scaled"]) != bool(b["scaled"])):
        raise CoverageError(
            "cannot merge trackers with different threshold/scaling — "
            "they measure different coverage criteria")
    if not np.array_equal(np.asarray(a["tracked"], dtype=bool),
                          np.asarray(b["tracked"], dtype=bool)):
        raise CoverageError(
            "cannot merge trackers with different layer filters")


def merge_state_dicts(a, b):
    """OR-merge two tracker snapshots into a new snapshot (PR-2 merge laws:
    commutative, associative, idempotent).  Inputs are not mutated."""
    check_states_compatible(a, b)
    merged = {
        "network": a["network"],
        "total_neurons": int(a["total_neurons"]),
        "threshold": float(a["threshold"]),
        "scaled": bool(a["scaled"]),
        "tracked": np.asarray(a["tracked"], dtype=bool).copy(),
        "covered": (np.asarray(a["covered"], dtype=bool)
                    | np.asarray(b["covered"], dtype=bool)),
    }
    return merged


def raw_activations(network, x, batch_size=256):
    """Neuron activations for raw inputs or a recorded forward tape.

    Shared dispatch for every coverage criterion: a
    :class:`~repro.nn.tape.ForwardPass` must belong to ``network`` and
    is read without re-execution; anything else is treated as a batch of
    inputs and run through ``network.neuron_activations``.
    """
    if isinstance(x, ForwardPass):
        if x.network is not network:
            raise CoverageError(
                f"tape of network {x.network.name!r} handed to a coverage "
                f"criterion over {network.name!r}")
        return x.neuron_activations()
    # Leave the dtype cast to the network so float32 models don't pay a
    # round-trip through float64.
    return network.neuron_activations(np.asarray(x), batch_size=batch_size)


class NeuronCoverageTracker:
    """Tracks which neurons of one network have been activated so far.

    This is the ``cov_tracker`` of Algorithm 1.  ``layer_filter`` lets
    experiments reproduce the paper's Table 8 setting, where coverage is
    measured "on layers except fully-connected layers".
    """

    def __init__(self, network, threshold=0.0, scaled=True,
                 layer_filter=None):
        self.network = network
        self.threshold = float(threshold)
        self.scaled = bool(scaled)
        included = []
        for entry in network.neuron_layers:
            if layer_filter is None or layer_filter(
                    network.layers[entry.layer_index]):
                included.append(entry)
        self._entries = included
        self._tracked = np.zeros(network.total_neurons, dtype=bool)
        for entry in included:
            self._tracked[entry.offset:entry.offset + entry.count] = True
        self.covered = np.zeros(network.total_neurons, dtype=bool)

    @classmethod
    def from_state(cls, network, state):
        """Rebuild a tracker from a :meth:`state_dict` snapshot.

        ``network`` may be a different object than the snapshot's origin
        (campaign workers rebuild models from payloads); it must match by
        name and neuron count.  ``layer_filter`` callables don't cross
        process boundaries, so the tracked mask is restored verbatim from
        the snapshot instead.
        """
        if (state["network"] != network.name
                or state["total_neurons"] != network.total_neurons):
            raise CoverageError(
                f"tracker state of {state['network']!r} "
                f"({state['total_neurons']} neurons) cannot rebuild over "
                f"{network.name!r} ({network.total_neurons})")
        tracker = cls(network, threshold=state["threshold"],
                      scaled=state["scaled"])
        tracker._tracked = np.asarray(state["tracked"], dtype=bool).copy()
        tracker._entries = [
            entry for entry in tracker._entries
            if tracker._tracked[entry.offset:entry.offset + entry.count].all()
        ]
        tracker.covered = np.asarray(state["covered"], dtype=bool).copy()
        return tracker

    @property
    def tracked_count(self):
        """Number of neurons participating in coverage."""
        return int(self._tracked.sum())

    def activations(self, x):
        """Neuron activations for ``x`` (inputs or a tape), scaled if the
        tracker scales."""
        acts = raw_activations(self.network, x)
        if self.scaled:
            acts = scale_layerwise(acts, self.network.neuron_layers)
        return acts

    def update(self, x, rows=None):
        """Fold a batch of inputs (or a recorded tape) into coverage;
        returns #newly covered.

        ``rows`` optionally restricts the update to a subset of the
        batch (indices or boolean mask) — batched generation uses this
        to absorb only the samples that became difference-inducing.
        Per-input layer scaling commutes with row selection, so slicing
        before scaling is exact.
        """
        acts = raw_activations(self.network, x)
        if rows is not None:
            acts = acts[rows]
        if self.scaled:
            acts = scale_layerwise(acts, self.network.neuron_layers)
        active = (acts > self.threshold).any(axis=0) & self._tracked
        newly = int((active & ~self.covered).sum())
        self.covered |= active
        return newly

    def update_from_tape(self, tape, rows=None):
        """Alias of :meth:`update` for call sites holding a tape."""
        return self.update(tape, rows=rows)

    def coverage(self):
        """Covered fraction of tracked neurons (the paper's NCov)."""
        tracked = self.tracked_count
        if tracked == 0:
            raise CoverageError("tracker has no tracked neurons")
        return float((self.covered & self._tracked).sum() / tracked)

    def covered_count(self):
        return int((self.covered & self._tracked).sum())

    def uncovered_ids(self):
        """Flat indices of tracked neurons not yet covered."""
        return np.flatnonzero(self._tracked & ~self.covered)

    def pick_uncovered(self, rng=None):
        """Random uncovered neuron id, or ``None`` when fully covered.

        This is line 33 of Algorithm 1: "select a neuron n inactivated so
        far using cov_tracker".
        """
        candidates = self.uncovered_ids()
        if candidates.size == 0:
            return None
        rng = as_rng(rng)
        return int(candidates[rng.integers(0, candidates.size)])

    # -- merge protocol -----------------------------------------------------
    # Coverage is an OR over boolean masks, so per-worker trackers can be
    # shipped across process boundaries as plain dicts and OR-combined in
    # any order (see docs/ARCHITECTURE.md, "Coverage merge semantics").

    def state_dict(self):
        """Picklable snapshot: configuration + the covered mask (copies)."""
        return {
            "network": self.network.name,
            "total_neurons": self.network.total_neurons,
            "threshold": self.threshold,
            "scaled": self.scaled,
            "tracked": self._tracked.copy(),
            "covered": self.covered.copy(),
        }

    def _check_compatible(self, state):
        """Merging requires the same criterion over the same architecture.

        Workers rebuild networks from payloads, so object identity cannot
        be required; name, neuron count, threshold/scaling, and the
        tracked mask must match instead (snapshot-level check shared with
        :func:`check_states_compatible`).  The header dict references the
        live masks rather than ``state_dict()`` copies — this runs once
        per shard per model on every campaign merge.
        """
        check_states_compatible(
            {"network": self.network.name,
             "total_neurons": self.network.total_neurons,
             "threshold": self.threshold,
             "scaled": self.scaled,
             "tracked": self._tracked}, state)

    def load_state_dict(self, state):
        """Replace this tracker's covered mask with a saved snapshot."""
        self._check_compatible(state)
        self.covered[...] = np.asarray(state["covered"], dtype=bool)

    def merge(self, other):
        """Union coverage from another tracker (or its ``state_dict()``).

        OR is commutative, associative, and idempotent, so merging
        per-shard trackers in any order equals one tracker that saw the
        union of their inputs.  Returns ``self`` for chaining.
        """
        state = other.state_dict() if isinstance(
            other, NeuronCoverageTracker) else other
        self._check_compatible(state)
        self.covered |= np.asarray(state["covered"], dtype=bool)
        return self

    def reset(self):
        self.covered[:] = False

    def clone(self):
        """Copy with independent coverage state."""
        twin = NeuronCoverageTracker.__new__(NeuronCoverageTracker)
        twin.network = self.network
        twin.threshold = self.threshold
        twin.scaled = self.scaled
        twin._entries = self._entries
        twin._tracked = self._tracked
        twin.covered = self.covered.copy()
        return twin


def coverage_of_inputs(network, x, threshold=0.0, scaled=True,
                       layer_filter=None):
    """One-shot neuron coverage of ``x`` on ``network``."""
    tracker = NeuronCoverageTracker(network, threshold=threshold,
                                    scaled=scaled, layer_filter=layer_filter)
    tracker.update(x)
    return tracker.coverage()

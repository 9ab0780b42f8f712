"""Workspace reuse: buffer recycling semantics and the zero-allocation
regression guard for the steady-state ascent path."""

import numpy as np
import pytest

from repro.core import AscentEngine, Hyperparams, Unconstrained
from repro.nn import (Conv2D, Dense, Flatten, MaxPool2D, Network, Workspace,
                      dtypes)
from tests.nn.gradcheck import gradient_of_class


def _net(name, seed):
    rng = np.random.default_rng(seed)
    return Network([
        Conv2D(1, 3, 3, padding=1, rng=rng, name="c1"),
        MaxPool2D(2, name="mp"),
        Flatten(name="f"),
        Dense(3 * 4 * 4, 5, activation="softmax", rng=rng, name="out"),
    ], input_shape=(1, 8, 8), name=name)


def test_workspace_reuses_buffers_and_counts_allocations():
    ws = Workspace()
    a = ws.get("k", (4, 8), np.float64)
    assert a.shape == (4, 8) and ws.allocations == 1
    b = ws.get("k", (4, 8), np.float64)
    assert b.base is a.base or b is a
    assert ws.allocations == 1
    # Shrinking batches reuse the same storage prefix.
    c = ws.get("k", (2, 8), np.float64)
    assert ws.allocations == 1 and c.shape == (2, 8)
    # Growth or a dtype change genuinely reallocates.
    ws.get("k", (8, 8), np.float64)
    assert ws.allocations == 2
    ws.get("k", (2, 8), np.float32)
    assert ws.allocations == 3


def test_forward_backward_steady_state_allocates_nothing(monkeypatch):
    """After a warmup pass, repeated forward/backward at the same batch
    size must hit the workspace for every buffer: np.empty is shimmed
    with a counter and must not fire again."""
    net = _net("ws_net", 0)
    x = np.random.default_rng(1).random((6, 1, 8, 8))
    ws = Workspace()
    gradient_of_class(net.run(x, workspace=ws), 0)  # warmup sizes the pool
    warm = ws.allocations

    calls = {"empty": 0}
    real_empty = np.empty

    def counting_empty(*args, **kwargs):
        calls["empty"] += 1
        return real_empty(*args, **kwargs)

    monkeypatch.setattr(np, "empty", counting_empty)
    for _ in range(3):
        gradient_of_class(net.run(x, workspace=ws), 0)
    monkeypatch.undo()
    assert ws.allocations == warm, "workspace pool grew after warmup"
    assert calls["empty"] == 0, (
        f"steady-state forward/backward called np.empty "
        f"{calls['empty']} times")


def test_engine_run_reuses_workspaces_across_iterations():
    with dtypes.default_dtype(np.float64):
        models = [_net("m0", 0), _net("m1", 1)]
    hp = Hyperparams(lambda1=1.0, lambda2=0.1, step=0.05, max_iterations=6)
    engine = AscentEngine(models, hp, Unconstrained(),
                          task="classification", rng=0)
    seeds = np.random.default_rng(2).random((5, 1, 8, 8))
    engine.run(seeds)
    warm = [ws.allocations for ws in engine._workspaces]
    engine.run(seeds)
    assert [ws.allocations for ws in engine._workspaces] == warm


def test_workspace_and_plain_paths_agree_bitwise():
    net = _net("agree", 4)
    x = np.random.default_rng(5).random((3, 1, 8, 8))
    plain = net.run(x)
    ws = Workspace()
    pooled = net.run(x, workspace=ws)
    np.testing.assert_array_equal(plain.outputs(), pooled.outputs())
    np.testing.assert_array_equal(gradient_of_class(plain, 1),
                                  gradient_of_class(pooled, 1))
    np.testing.assert_array_equal(plain.neuron_activations(),
                                  pooled.neuron_activations())

    # A tape recorded with no caller workspace keeps its outputs and
    # gradients after later passes, and each backward from it returns
    # an array of its own.
    outputs = plain.outputs().copy()
    first = gradient_of_class(plain, 1)
    other = gradient_of_class(plain, 2)
    assert not np.shares_memory(first, other)
    assert not np.array_equal(first, other)
    flipped = x[:, :, ::-1].copy()
    for tape in (net.run(flipped), net.run(flipped, workspace=ws)):
        gradient_of_class(tape, 0)
    np.testing.assert_array_equal(plain.outputs(), outputs)
    np.testing.assert_array_equal(gradient_of_class(plain, 1), first)


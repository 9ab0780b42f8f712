"""Conv2D and im2col: shapes, adjointness, gradient checks, and the
input-gradient kernel pinned byte for byte to the reference ``col2im``
on every zoo shape and on edge shapes the zoo lacks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.models.dave import (build_dave_dropout, build_dave_norminit,
                               build_dave_orig)
from repro.models.lenet import build_lenet1, build_lenet4, build_lenet5
from repro.models.resnet import build_resnet
from repro.models.vgg import build_vgg16, build_vgg19
from repro.nn import Conv2D, Residual, Workspace, dtypes
from repro.nn.conv import conv_output_size, im2col

from tests.nn.gradcheck import apply, check_layer_gradients


def col2im(cols, input_shape, kernel_h, kernel_w, stride, pad):
    """Reference input-gradient fold: sum overlapping windows back into
    input space, one clipped scatter-add per kernel offset in ``i, j``
    order, into a sum that starts at ``+0.0``.  ``Conv2D.backward`` must
    match it byte for byte."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    cols = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    grad = np.zeros((n, c, h, w), dtype=cols.dtype)
    for i in range(kernel_h):
        for j in range(kernel_w):
            _scatter_add(grad, cols[:, :, i, j], i - pad, j - pad, stride,
                         h, w, out_h, out_w)
    return grad


def _scatter_add(grad, col, row_off, col_off, stride, h, w, out_h, out_w):
    """Add one kernel offset's columns into the valid region of ``grad``."""
    t0 = -(row_off // stride) if row_off < 0 else 0
    u0 = -(col_off // stride) if col_off < 0 else 0
    t1 = min(out_h, (h - 1 - row_off) // stride + 1)
    u1 = min(out_w, (w - 1 - col_off) // stride + 1)
    if t0 >= t1 or u0 >= u1:
        return
    r0 = row_off + stride * t0
    c0 = col_off + stride * u0
    grad[:, :, r0:row_off + stride * (t1 - 1) + 1:stride,
         c0:col_off + stride * (u1 - 1) + 1:stride] += col[:, :, t0:t1, u0:u1]


def test_conv_output_size():
    assert conv_output_size(28, 5, 1, 0) == 24
    assert conv_output_size(32, 3, 1, 1) == 32
    assert conv_output_size(16, 5, 2, 2) == 8
    with pytest.raises(ShapeError):
        conv_output_size(2, 5, 1, 0)


def test_im2col_matches_naive_convolution():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    cols = im2col(x, 3, 3, 1, 0, Workspace(), "im2col")
    out = (w.reshape(4, -1) @ cols).reshape(2, 4, 4, 4)
    # Naive direct convolution.
    naive = np.zeros_like(out)
    for n in range(2):
        for f in range(4):
            for i in range(4):
                for j in range(4):
                    naive[n, f, i, j] = (
                        x[n, :, i:i + 3, j:j + 3] * w[f]).sum()
    np.testing.assert_allclose(out, naive, atol=1e-12)


@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 1),
       st.integers(5, 8))
@settings(max_examples=20, deadline=None)
def test_im2col_col2im_adjoint(kernel, stride, pad, size):
    """<im2col(x), c> == <x, col2im(c)> — col2im is im2col's adjoint,
    which is exactly what the conv backward pass relies on."""
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 2, size, size))
    cols = im2col(x, kernel, kernel, stride, pad, Workspace(), "im2col")
    c = rng.normal(size=cols.shape)
    lhs = float((cols * c).sum())
    rhs = float((x * col2im(c, x.shape, kernel, kernel, stride, pad)).sum())
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 2)])
def test_conv_gradients(stride, padding):
    rng = np.random.default_rng(3)
    layer = Conv2D(2, 3, 3, stride=stride, padding=padding,
                   activation="relu", rng=rng)
    x = rng.normal(size=(2, 2, 8, 8)) + 0.1
    check_layer_gradients(layer, x, rng, atol=1e-6)


def test_conv_rejects_wrong_channels():
    layer = Conv2D(3, 4, 3, rng=0)
    with pytest.raises(ShapeError):
        apply(layer, np.zeros((1, 2, 8, 8)))


def test_conv_output_shape_helper():
    layer = Conv2D(3, 8, 5, stride=2, padding=2, rng=0)
    assert layer.output_shape((3, 16, 32)) == (8, 8, 16)


def test_neuron_semantics_channel_mean():
    rng = np.random.default_rng(4)
    layer = Conv2D(1, 2, 3, padding=1, activation="linear", rng=rng)
    x = rng.normal(size=(2, 1, 4, 4))
    out = apply(layer, x)
    neurons = layer.neuron_outputs(out)
    assert neurons.shape == (2, 2)
    np.testing.assert_allclose(neurons, out.mean(axis=(2, 3)))
    # The seed must recover the spatial-mean functional exactly.
    seed = layer.neuron_seed((2, 4, 4), 1)
    np.testing.assert_allclose((seed[None] * out).sum(axis=(1, 2, 3)),
                               neurons[:, 1])


def test_asymmetric_kernel():
    rng = np.random.default_rng(5)
    layer = Conv2D(1, 2, (3, 5), rng=rng)
    out = apply(layer, rng.normal(size=(1, 1, 8, 10)))
    assert out.shape == (1, 2, 6, 6)


def _zoo_conv_shapes():
    """``(in, out, kernel, stride, pad, h, w)`` of every zoo Conv2D."""
    shapes = set()

    def walk(layers, shape):
        for layer in layers:
            if isinstance(layer, Conv2D):
                shapes.add((layer.in_channels, layer.out_channels,
                            layer.kernel_size, layer.stride, layer.padding)
                           + tuple(shape[1:]))
            elif isinstance(layer, Residual):
                walk(layer.body + layer.shortcut, shape)
            shape = layer.output_shape(shape)

    for build in (build_lenet1, build_lenet4, build_lenet5, build_dave_orig,
                  build_dave_norminit, build_dave_dropout, build_vgg16,
                  build_vgg19, build_resnet):
        network = build(rng=0)
        walk(network.layers, network.input_shape)
    return sorted(shapes)


ZOO_CONV_SHAPES = _zoo_conv_shapes()

#: Shapes no zoo model has, in the same layout: stride 3, kernels
#: smaller than their stride, an asymmetric kernel, padding of at least
#: the stride, and ragged edges, where ``(h + 2p - kh) % s`` or
#: ``(w + 2p - kw) % s`` is not 0, so the last padded rows or columns
#: take no window.
EDGE_CONV_SHAPES = [
    (2, 3, (3, 3), 3, 0, 9, 9),
    (2, 3, (3, 3), 3, 1, 10, 11),
    (1, 2, (4, 4), 3, 1, 10, 12),
    (3, 4, (1, 1), 2, 0, 7, 8),
    (2, 3, (2, 2), 3, 0, 10, 10),
    (2, 3, (3, 5), 2, 1, 9, 12),
    (2, 3, (5, 5), 2, 3, 8, 9),
    (3, 4, (3, 3), 2, 0, 8, 10),
    (3, 4, (5, 5), 2, 2, 11, 14),
]


def _shape_id(shape):
    c, f, (kh, kw), stride, pad, h, w = shape
    return f"{c}to{f}-k{kh}x{kw}-s{stride}-p{pad}-{h}x{w}"


@pytest.fixture
def poisoned_empty(monkeypatch):
    """np.empty hands out NaN-filled float buffers, so a kernel that
    reads a cell it never wrote or zeroed shows in the bytes."""
    real_empty = np.empty

    def empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", empty)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", ZOO_CONV_SHAPES + EDGE_CONV_SHAPES,
                         ids=_shape_id)
def test_input_gradient_is_col2im_bit_for_bit(shape, dtype, poisoned_empty):
    """Conv2D.backward's input gradient has the bytes of
    ``col2im(W.T @ grad_z)`` — signed zeros included — through a fresh
    workspace and through one workspace whose batch shrinks (prefix
    reuse), down to one sample, and then grows past its buffers (fresh
    zero tails)."""
    c, f, kernel, stride, pad, h, w = shape
    rng = np.random.default_rng(7)
    # A linear activation makes grad_z exactly the incoming gradient.
    with dtypes.default_dtype(dtype):
        layer = Conv2D(c, f, kernel, stride=stride, padding=pad,
                       activation="linear", rng=rng)
    workspace = Workspace()
    for n, ws in [(12, Workspace()), (12, workspace), (3, workspace),
                  (1, workspace), (16, workspace)]:
        x = rng.normal(size=(n, c, h, w)).astype(dtype)
        out, ctx = layer.forward(x, workspace=ws)
        grad_z = rng.normal(size=out.shape).astype(dtype)
        pick = rng.random(out.shape)
        grad_z[pick < 0.15] = 0.0
        grad_z[pick > 0.85] = -0.0
        want = col2im(layer.weight.value.T @ grad_z.reshape(n, f, -1),
                      x.shape, *kernel, stride, pad)
        got = layer.backward(ctx, grad_z, accumulate=False)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (n, ws is workspace)

"""2-D convolution via im2col.

Array layout is ``(batch, channels, height, width)`` throughout.  The
im2col/col2im pair turns convolution into a single matrix multiply, which
is the only way a pure-numpy CNN is fast enough to train the model zoo.

Kernel notes:

* ``im2col`` gathers windows through an ``as_strided`` view of the
  (padded) input and one bulk ``copyto`` — a pure data movement, so the
  result is bit-identical to the historical per-offset Python loop.
* The input gradient sums overlapping windows **in the same i,j order
  as always**: changing that order would change float rounding and
  break the pinned float64 goldens.  Stride 1 (every LeNet conv, Dave's
  and the ImageNet models' 3x3 convs) folds it without a scatter
  (:func:`_fold_rows`): the ``W.T @ grad_z`` GEMM writes each
  ``(c, i, j)`` row, followed by a zero tail, into a buffer laid out
  like the padded input, and ``kh*kw`` whole-row adds of shifted views
  build the padded gradient.  Every cell gets the same values in the
  same order; the extra adds read only zero tails or zero columns, and
  adding ``±0.0`` to a sum that started at ``+0.0`` changes no bit.
  On LeNet-5 at batch 12, float32, with a workspace, this took the
  backward of ``conv1`` and of ``conv2`` from 580-690 µs to 310-330 µs
  each (2-vCPU Xeon VM, one BLAS thread; docs/PERFORMANCE.md).
  Stride > 1 keeps ``col2im``'s clipped per-offset scatter-adds: a
  strided fold would need a dilated row layout, which measured slower
  there.
* The kernels take caller-provided buffers or a
  :class:`~repro.nn.workspace.Workspace`, so the ascent loop can reuse
  its memory across iterations, and ``Conv2D.forward`` fuses bias +
  activation into the GEMM epilogue (in-place on the output buffer)
  whenever the activation's backward does not need the pre-activation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError
from repro.nn.activations import get_activation
from repro.nn.initializers import get_initializer
from repro.nn.layer import Layer
from repro.nn.parameter import Parameter
from repro.nn.workspace import Workspace
from repro.utils.rng import as_rng

__all__ = ["Conv2D", "im2col", "col2im", "conv_output_size"]


def conv_output_size(size, kernel, stride, pad):
    """Output spatial size of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"kernel {kernel} with stride {stride}, pad {pad} does not fit "
            f"input size {size}")
    return out


def im2col(x, kernel_h, kernel_w, stride, pad, out=None, pad_buffer=None):
    """Unfold ``x`` (N, C, H, W) into columns (N, C*kh*kw, out_h*out_w).

    ``out`` (column buffer) and ``pad_buffer`` (padded-input scratch,
    shape ``(N, C, H+2p, W+2p)``) are optional preallocated arrays.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    if pad:
        if pad_buffer is None:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        else:
            # The interior is overwritten below, so only the border
            # frame needs zeroing when the buffer is recycled.
            pad_buffer[:, :, :pad, :].fill(0.0)
            pad_buffer[:, :, -pad:, :].fill(0.0)
            pad_buffer[:, :, pad:-pad, :pad].fill(0.0)
            pad_buffer[:, :, pad:-pad, -pad:].fill(0.0)
            pad_buffer[:, :, pad:-pad, pad:-pad] = x
            x = pad_buffer
    sn, sc, sh, sw = x.strides
    windows = as_strided(
        x, shape=(n, c, kernel_h, kernel_w, out_h, out_w),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw))
    if out is None:
        out = np.empty((n, c * kernel_h * kernel_w, out_h * out_w),
                       dtype=x.dtype)
    np.copyto(out.reshape(n, c, kernel_h, kernel_w, out_h, out_w), windows)
    return out


def col2im(cols, input_shape, kernel_h, kernel_w, stride, pad, out=None):
    """Fold columns back to input space, summing overlapping windows.

    ``out`` is an optional unpadded buffer ``(N, C, H, W)``; it is
    zeroed here.  Each kernel offset's scatter-add is clipped to the
    valid (unpadded) region, so no padded scratch is materialized and
    no work is spent on border cells that would be cropped anyway.  The
    i,j accumulation order is load-bearing for bit-identical gradients
    — do not reorder.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    cols = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    if out is None:
        grad = np.zeros((n, c, h, w), dtype=cols.dtype)
    else:
        grad = out
        grad.fill(0.0)
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


def _fold_rows(weight, grad_z, input_shape, kernel_h, kernel_w, pad,
               workspace, key):
    """Stride-1 input gradient: ``col2im(weight.T @ grad_z)`` bit for bit.

    The GEMM runs on ``grad_z`` widened to the padded width ``wp`` (the
    extra columns are zero) and writes row ``(c, i, j)`` of each sample
    into a buffer with row length ``hp*wp + kw - 1``: the row's
    ``out_h*wp`` GEMM cells, then a zero tail.  Read ``i*wp + j`` cells
    early, row ``(c, i, j)`` lines up with the padded input, so offset
    ``(i, j)``'s contribution is one whole-row add.  A read outside the
    window lands on a zero column or in the previous row's zero tail,
    which covers the longest shift, ``(kh-1)*wp + kw - 1``; the first
    row is offset ``(0, 0)``, which reads unshifted.  Only the ``h``
    unpadded grid rows are summed; the pad columns are cropped once at
    the end.

    The tails and the extra columns are zeroed only when their buffer
    is fresh (always, when ``workspace`` is None): later passes through
    a workspace overwrite just the GEMM cells and ``grad_z``'s columns.
    """
    n, c, h, w = input_shape
    f, out_h, out_w = grad_z.shape[1:]
    wp = w + 2 * pad
    taps = kernel_h * kernel_w
    row = (h + 2 * pad) * wp + kernel_w - 1
    dtype = grad_z.dtype
    if workspace is None:
        workspace = Workspace()
    # The zero layout depends on the spatial size, so it is keyed.
    allocations = workspace.allocations
    wide = workspace.get((key, "gzwide", h, w), (n, f, out_h, wp), dtype)
    rows = workspace.get((key, "gxrows", h, w), (n, c * taps, row), dtype)
    fresh = workspace.allocations != allocations
    acc = workspace.get((key, "gxacc" if pad else "gx"), (n, c, h, wp), dtype)
    if fresh:
        wide[..., out_w:] = 0.0
        rows[..., out_h * wp:] = 0.0
    wide[..., :out_w] = grad_z
    np.matmul(weight.T, wide.reshape(n, f, out_h * wp),
              out=rows[..., :out_h * wp])
    item = rows.itemsize
    shifted = as_strided(
        rows.reshape(-1)[pad * wp:], shape=(kernel_h, kernel_w, n, c, h * wp),
        strides=((kernel_w * row - wp) * item, (row - 1) * item,
                 c * taps * row * item, taps * row * item, item))
    flat = acc.reshape(n, c, h * wp)
    flat.fill(0.0)
    for i in range(kernel_h):
        for j in range(kernel_w):
            flat += shifted[i, j]
    if not pad:
        return acc
    grad = workspace.get((key, "gx"), (n, c, h, w), dtype)
    np.copyto(grad, acc[..., pad:pad + w])
    return grad


class Conv2D(Layer):
    """Convolution with built-in activation.

    For neuron coverage, each output *channel* is one neuron whose value is
    the spatial mean of its feature map — the convention of the original
    DeepXplore implementation.
    """

    exposes_neurons = True

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 padding=0, activation="relu", initializer="he_normal",
                 rng=None, name=None):
        super().__init__(name=name)
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = tuple(int(k) for k in kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.activation = get_activation(activation)
        kh, kw = self.kernel_size
        fan_in = self.in_channels * kh * kw
        fan_out = self.out_channels * kh * kw
        rng = as_rng(rng)
        init = get_initializer(initializer)
        weight = init((self.out_channels, fan_in), fan_in=fan_in,
                      fan_out=fan_out, rng=rng)
        self.weight = Parameter(weight, f"{self.name}.weight")
        self.bias = Parameter(np.zeros(self.out_channels), f"{self.name}.bias")

    def forward(self, x, training=False, workspace=None):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected (batch, {self.in_channels}, H, W), "
                f"got {x.shape}")
        kh, kw = self.kernel_size
        n = x.shape[0]
        out_h = conv_output_size(x.shape[2], kh, self.stride, self.padding)
        out_w = conv_output_size(x.shape[3], kw, self.stride, self.padding)
        cols = pad_buffer = None
        if workspace is not None:
            if self.padding:
                pad_buffer = workspace.get(
                    (id(self), "pad"),
                    (n, self.in_channels, x.shape[2] + 2 * self.padding,
                     x.shape[3] + 2 * self.padding), x.dtype)
            cols = workspace.get(
                (id(self), "cols"),
                (n, self.in_channels * kh * kw, out_h * out_w), x.dtype)
        cols = im2col(x, kh, kw, self.stride, self.padding, out=cols,
                      pad_buffer=pad_buffer)
        if workspace is None:
            z_flat = self.weight.value @ cols  # (N, F, out_h*out_w)
        else:
            z_flat = workspace.get((id(self), "z"),
                                   (n, self.out_channels, out_h * out_w),
                                   x.dtype)
            np.matmul(self.weight.value, cols, out=z_flat)
        z_flat += self.bias.value[None, :, None]
        z = z_flat.reshape(n, self.out_channels, out_h, out_w)
        if self.activation.needs_preactivation:
            a = self.activation.forward(z)
            return a, (x.shape, cols, z, a, workspace)
        a = self.activation.forward_into(z, z)
        return a, (x.shape, cols, None, a, workspace)

    def backward(self, ctx, grad_out, accumulate=True):
        input_shape, cols, z, a, workspace = ctx
        if workspace is None:
            grad_z = self.activation.backward(grad_out, z, a)
        else:
            grad_z = self.activation.backward_into(
                grad_out, z, a,
                out=workspace.get((id(self), "gz"), grad_out.shape,
                                  grad_out.dtype),
                mask=workspace.get((id(self), "gzmask"), grad_out.shape,
                                   np.bool_))
        n = grad_z.shape[0]
        gz_flat = grad_z.reshape(n, self.out_channels, -1)
        if accumulate:
            self.weight.grad += np.tensordot(gz_flat, cols,
                                             axes=([0, 2], [0, 2]))
            self.bias.grad += gz_flat.sum(axis=(0, 2))
        kh, kw = self.kernel_size
        if self.stride == 1:
            return _fold_rows(self.weight.value, grad_z, input_shape, kh, kw,
                              self.padding, workspace, id(self))
        if workspace is None:
            grad_cols = self.weight.value.T @ gz_flat
            return col2im(grad_cols, input_shape, kh, kw, self.stride,
                          self.padding)
        grad_cols = workspace.get((id(self), "gcols"), cols.shape,
                                  gz_flat.dtype)
        np.matmul(self.weight.value.T, gz_flat, out=grad_cols)
        _, c, h, w = input_shape
        grad_x = workspace.get((id(self), "gx"), (n, c, h, w),
                               gz_flat.dtype)
        return col2im(grad_cols, input_shape, kh, kw, self.stride,
                      self.padding, out=grad_x)

    def parameters(self):
        return [self.weight, self.bias]

    def output_shape(self, input_shape):
        c, h, w = input_shape
        kh, kw = self.kernel_size
        return (self.out_channels,
                conv_output_size(h, kh, self.stride, self.padding),
                conv_output_size(w, kw, self.stride, self.padding))

    def neuron_count(self, input_shape):
        return self.out_channels

    def neuron_outputs(self, output):
        return output.mean(axis=(2, 3))

    def neuron_seed(self, output_shape, neuron_index, dtype=np.float64):
        channels, h, w = output_shape
        seed = np.zeros(output_shape, dtype=dtype)
        seed[neuron_index] = 1.0 / (h * w)
        return seed

"""2-D convolution via im2col.

Array layout is ``(batch, channels, height, width)`` throughout.  The
forward pass unfolds windows into columns (``im2col``) and the input
gradient folds them back, so convolution is a single matrix multiply
each way, which is the only way a pure-numpy CNN is fast enough to
train the model zoo.

Kernel notes:

* ``im2col`` gathers windows through an ``as_strided`` view of the
  (padded) input and one bulk ``copyto`` — a pure data movement, so the
  result is bit-identical to the historical per-offset Python loop.
* The input gradient sums overlapping windows **in the same i,j order
  as always**: changing that order would change float rounding and
  break the pinned float64 goldens.  It has no scatter step at any
  stride (:func:`_fold_rows`).  Split by stride phase, the padded input
  is ``s*s`` grids in which tap ``(i, j)`` is a whole-row shift by
  ``(i // s, j // s)``: the ``W.T @ grad_z`` GEMM writes each
  ``(c, i, j)`` row, followed by a zero tail, into a buffer laid out
  like one phase grid, and one add of a strided view per shift adds
  every tap with that shift, each into its own phase.  Every cell gets
  the same values in the same order; the extra adds read only zero
  tails or zero columns, and adding ``±0.0`` to a sum that started at
  ``+0.0`` changes no bit.  A 5x5 kernel takes 25 whole-row adds at
  stride 1 and 9 at stride 2.  On LeNet-5 at batch 12, float32, with a
  workspace, the stride-1 fold took the backward of ``conv1`` and of
  ``conv2`` from 580-690 µs to 310-330 µs each, and the stride-2 fold
  took the backward of Dave's ``conv1`` and ``conv2`` to 0.43-0.59x of
  the time of the clipped per-offset scatter-adds it replaced (2-vCPU
  Xeon VM, one BLAS thread; docs/PERFORMANCE.md).
* The kernels draw every buffer from the pass's
  :class:`~repro.nn.workspace.Workspace`, so the ascent loop and the
  trainer reuse their memory across iterations, and ``Conv2D.forward``
  fuses bias + activation into the GEMM epilogue (in-place on the output
  buffer) whenever the activation's backward does not need the
  pre-activation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError
from repro.nn.activations import get_activation
from repro.nn.initializers import get_initializer
from repro.nn.layer import Layer
from repro.nn.parameter import Parameter
from repro.utils.rng import as_rng

__all__ = ["Conv2D", "im2col", "conv_output_size"]


def conv_output_size(size, kernel, stride, pad):
    """Output spatial size of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"kernel {kernel} with stride {stride}, pad {pad} does not fit "
            f"input size {size}")
    return out


def im2col(x, kernel_h, kernel_w, stride, pad, workspace, key):
    """Unfold ``x`` (N, C, H, W) into columns (N, C*kh*kw, out_h*out_w).

    The columns, and the padded copy of ``x`` when ``pad`` is nonzero,
    are ``workspace`` buffers under ``(key, "cols")`` and ``(key, "pad")``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    if pad:
        padded = workspace.get((key, "pad"), (n, c, h + 2 * pad, w + 2 * pad),
                               x.dtype)
        # The interior is overwritten below, so only the border frame
        # needs zeroing when the buffer is recycled.
        padded[:, :, :pad, :].fill(0.0)
        padded[:, :, -pad:, :].fill(0.0)
        padded[:, :, pad:-pad, :pad].fill(0.0)
        padded[:, :, pad:-pad, -pad:].fill(0.0)
        padded[:, :, pad:-pad, pad:-pad] = x
        x = padded
    sn, sc, sh, sw = x.strides
    windows = as_strided(
        x, shape=(n, c, kernel_h, kernel_w, out_h, out_w),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw))
    out = workspace.get((key, "cols"),
                        (n, c * kernel_h * kernel_w, out_h * out_w), x.dtype)
    np.copyto(out.reshape(n, c, kernel_h, kernel_w, out_h, out_w), windows)
    return out


def _fold_rows(weight, grad_z, input_shape, kernel_h, kernel_w, stride, pad,
               workspace, key):
    """The input gradient of a conv layer: the GEMM ``weight.T @ grad_z``
    folded back onto the input with the bytes of one clipped scatter-add
    per tap ``(i, j)`` in row-major order (``col2im``, kept as the
    reference in tests/nn/test_conv.py).

    Padded input row ``R = s*t + i`` (``s`` the stride, ``t`` the output
    row, ``i`` the tap row) lies in row phase ``i % s`` at sub-row
    ``t + i // s``, and columns split the same way.  So the padded
    input is ``s*s`` phase grids ``gw = ceil((W+2p)/s)`` cells wide, and
    within its phase tap ``(i, j)`` is a whole-row shift of its GEMM row
    by ``(i // s, j // s)``.

    The GEMM runs on ``grad_z`` widened to ``gw`` columns (the extra
    columns are zero) and writes row ``(c, i, j)`` of each sample into
    a buffer of rows that hold the ``out_h*gw`` GEMM cells, then a zero
    tail at least as long as the longest shift.  Read
    ``(i // s)*gw + j // s`` cells early, row ``(c, i, j)`` lines up with
    its phase grid.  Taps that share a shift land in different phases,
    so one add of a strided view carries them all, and the
    ``ceil(kh/s)*ceil(kw/s)`` adds, in row-major shift order, hand every
    cell its taps in ``i, j`` order, into a sum that starts at ``+0.0``.
    A read outside the window lands on a zero column or in the previous
    row's zero tail; the first row is tap ``(0, 0)``, which reads
    unshifted.  Only the sub-rows that hold unpadded rows are summed.
    One copy per phase crops the grids and interleaves them, unless the
    one grid is the unpadded input (stride 1, no padding).

    The tails and the extra columns are zeroed only when their buffer
    is fresh: later passes through the workspace overwrite just the GEMM
    cells and ``grad_z``'s columns.
    """
    n, c, h, w = input_shape
    f, out_h, out_w = grad_z.shape[1:]
    s = stride
    grid_w = -(-(w + 2 * pad) // s)
    shifts_h, shifts_w = -(-kernel_h // s), -(-kernel_w // s)
    taps = kernel_h * kernel_w
    row = -(-(h + 2 * pad) // s) * grid_w + shifts_w - 1
    first = pad // s    # the first sub-row that holds an unpadded row
    cells = ((pad + h - 1) // s + 1 - first) * grid_w
    dtype = grad_z.dtype
    # The zero layout depends on the spatial size, so it is keyed.
    allocations = workspace.allocations
    wide = workspace.get((key, "gzwide", h, w), (n, f, out_h, grid_w), dtype)
    rows = workspace.get((key, "gxrows", h, w), (n, c * taps, row), dtype)
    fresh = workspace.allocations != allocations
    direct = s == 1 and not pad
    acc = workspace.get((key, "gx" if direct else "gxacc"),
                        (n * c, s, s, cells), dtype)
    if fresh:
        wide[..., out_w:] = 0.0
        rows[..., out_h * grid_w:] = 0.0
    wide[..., :out_w] = grad_z
    np.matmul(weight.T, wide.reshape(n, f, out_h * grid_w),
              out=rows[..., :out_h * grid_w])
    item = rows.itemsize
    # shifted[a, b][:, i, j] is tap (s*a + i, s*b + j) shifted by (a, b).
    # Taps past the kernel are never read: the last shift row (column)
    # takes only the kh % s (kw % s) phases that exist.
    shifted = as_strided(
        rows.reshape(-1)[first * grid_w:],
        shape=(shifts_h, shifts_w, n * c, s, s, cells),
        strides=((s * kernel_w * row - grid_w) * item, (s * row - 1) * item,
                 taps * row * item, kernel_w * row * item, row * item,
                 item))
    full_h, part_h = divmod(kernel_h, s)
    full_w, part_w = divmod(kernel_w, s)
    acc.fill(0.0)
    for a in range(full_h):
        for b in range(full_w):
            acc += shifted[a, b]
        if part_w:
            acc[:, :, :part_w] += shifted[a, full_w, :, :, :part_w]
    if part_h:
        for b in range(shifts_w):
            phases_w = part_w if b == full_w else s
            acc[:, :part_h, :phases_w] += \
                shifted[full_h, b, :, :part_h, :phases_w]
    if direct:
        return acc.reshape(n, c, h, w)
    grad = workspace.get((key, "gx"), (n, c, h, w), dtype)
    grids = acc.reshape(n, c, s, s, -1, grid_w)
    for r in range(s):          # unpadded rows r, r + s, ...: one phase
        t = (r + pad) // s - first
        for u in range(s):
            out = grad[:, :, r::s, u::s]
            v = (u + pad) // s
            np.copyto(out, grids[:, :, (r + pad) % s, (u + pad) % s,
                                 t:t + out.shape[2], v:v + out.shape[3]])
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

    def forward(self, x, training=False, *, workspace):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: expected (batch, {self.in_channels}, H, W), "
                f"got {x.shape}")
        kh, kw = self.kernel_size
        n = x.shape[0]
        out_h = conv_output_size(x.shape[2], kh, self.stride, self.padding)
        out_w = conv_output_size(x.shape[3], kw, self.stride, self.padding)
        cols = im2col(x, kh, kw, self.stride, self.padding, workspace,
                      id(self))
        z_flat = workspace.get((id(self), "z"),
                               (n, self.out_channels, out_h * out_w), x.dtype)
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
        grad_z = self.activation.backward_into(
            grad_out, z, a,
            out=workspace.get((id(self), "gz"), grad_out.shape,
                              grad_out.dtype),
            mask=workspace.get((id(self), "gzmask"), grad_out.shape,
                               np.bool_))
        if accumulate:
            gz_flat = grad_z.reshape(grad_z.shape[0], self.out_channels, -1)
            self.weight.grad += np.tensordot(gz_flat, cols,
                                             axes=([0, 2], [0, 2]))
            self.bias.grad += gz_flat.sum(axis=(0, 2))
        kh, kw = self.kernel_size
        return _fold_rows(self.weight.value, grad_z, input_shape, kh, kw,
                          self.stride, self.padding, workspace, id(self))

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

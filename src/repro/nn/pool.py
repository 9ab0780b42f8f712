"""Pooling layers (max, average, global average)."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.layer import Layer

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


def _check_divisible(shape, pool):
    _, _, h, w = shape
    ph, pw = pool
    if h % ph or w % pw:
        raise ShapeError(
            f"pool {pool} does not evenly divide spatial dims {(h, w)}")


class MaxPool2D(Layer):
    """Non-overlapping max pooling with window == stride.

    All architectures in the zoo use non-overlapping windows, so the layer
    requires the spatial dims to be divisible by the pool size and exploits
    that with a reshape-based implementation.
    """

    def __init__(self, pool_size=2, name=None):
        super().__init__(name=name)
        if isinstance(pool_size, int):
            pool_size = (pool_size, pool_size)
        self.pool_size = tuple(int(p) for p in pool_size)

    def forward(self, x, training=False, *, workspace):
        _check_divisible(x.shape, self.pool_size)
        n, c, h, w = x.shape
        ph, pw = self.pool_size
        # Strided-slice max over the ph*pw window positions: no
        # transpose/reshape copies, no argmax.  np.maximum of the same
        # elements is the same max, so outputs are bit-identical to the
        # historical windowed argmax implementation.
        out = workspace.get((id(self), "out"), (n, c, h // ph, w // pw),
                            x.dtype)
        np.copyto(out, x[:, :, 0::ph, 0::pw])
        for a in range(ph):
            for b in range(pw):
                if a or b:
                    np.maximum(out, x[:, :, a::ph, b::pw], out=out)
        # The memo caches the winner masks across repeated backwards
        # from one tape (differential + coverage reuse the same ctx).
        return out, (x, out, workspace, [])

    def backward(self, ctx, grad_out, accumulate=True):
        x, out, workspace, memo = ctx
        n, c, h, w = x.shape
        ph, pw = self.pool_size
        if not memo:
            # First-max-wins masks in window row-major order — the same
            # tie-breaking as the historical argmax, so gradient routing
            # (and the float64 goldens) stay bit-identical.
            masks, taken = [], None
            for a in range(ph):
                for b in range(pw):
                    mask = x[:, :, a::ph, b::pw] == out
                    if taken is None:
                        taken = mask.copy()
                    else:
                        mask &= ~taken
                        taken |= mask
                    masks.append(mask)
            memo.append(masks)
        masks = memo[0]
        grad_x = workspace.get((id(self), "gx"), (n, c, h, w),
                               grad_out.dtype)
        k = 0
        for a in range(ph):
            for b in range(pw):
                np.multiply(grad_out, masks[k],
                            out=grad_x[:, :, a::ph, b::pw])
                k += 1
        return grad_x

    def output_shape(self, input_shape):
        c, h, w = input_shape
        ph, pw = self.pool_size
        if h % ph or w % pw:
            raise ShapeError(
                f"pool {self.pool_size} does not divide {(h, w)}")
        return (c, h // ph, w // pw)


class AvgPool2D(Layer):
    """Non-overlapping average pooling with window == stride."""

    def __init__(self, pool_size=2, name=None):
        super().__init__(name=name)
        if isinstance(pool_size, int):
            pool_size = (pool_size, pool_size)
        self.pool_size = tuple(int(p) for p in pool_size)

    def forward(self, x, training=False, workspace=None):
        _check_divisible(x.shape, self.pool_size)
        n, c, h, w = x.shape
        ph, pw = self.pool_size
        out = (x.reshape(n, c, h // ph, ph, w // pw, pw)
               .mean(axis=(3, 5)))
        return out, x.shape

    def backward(self, ctx, grad_out, accumulate=True):
        n, c, h, w = ctx
        ph, pw = self.pool_size
        scale = 1.0 / (ph * pw)
        expanded = np.repeat(np.repeat(grad_out, ph, axis=2), pw, axis=3)
        return expanded * scale

    def output_shape(self, input_shape):
        c, h, w = input_shape
        ph, pw = self.pool_size
        if h % ph or w % pw:
            raise ShapeError(
                f"pool {self.pool_size} does not divide {(h, w)}")
        return (c, h // ph, w // pw)


class GlobalAvgPool2D(Layer):
    """Average each channel over all spatial positions: (N,C,H,W)->(N,C)."""

    def forward(self, x, training=False, workspace=None):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, ctx, grad_out, accumulate=True):
        n, c, h, w = ctx
        return np.broadcast_to(
            grad_out[:, :, None, None] / (h * w), (n, c, h, w)).copy()

    def output_shape(self, input_shape):
        c, h, w = input_shape
        return (c,)

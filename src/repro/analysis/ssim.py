"""Structural similarity (SSIM, Wang et al. 2004).

Used by the pollution-detection experiment (§7.3) to match DeepXplore's
error-inducing digits against the most structurally similar training
samples.  Implemented with a uniform local window over single-channel
images; multi-channel images average the per-channel index.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

__all__ = ["ssim"]

_C1 = (0.01) ** 2
_C2 = (0.03) ** 2


def _ssim_single(a, b, window):
    # Imported here: scipy.ndimage takes about 0.25 s to import, which
    # every process that imports ``repro`` would pay, each campaign
    # engine process included.
    from scipy.ndimage import uniform_filter
    mu_a = uniform_filter(a, size=window)
    mu_b = uniform_filter(b, size=window)
    mu_aa = uniform_filter(a * a, size=window)
    mu_bb = uniform_filter(b * b, size=window)
    mu_ab = uniform_filter(a * b, size=window)
    var_a = mu_aa - mu_a * mu_a
    var_b = mu_bb - mu_b * mu_b
    cov = mu_ab - mu_a * mu_b
    numerator = (2 * mu_a * mu_b + _C1) * (2 * cov + _C2)
    denominator = (mu_a ** 2 + mu_b ** 2 + _C1) * (var_a + var_b + _C2)
    return float((numerator / denominator).mean())


def ssim(image_a, image_b, window=7):
    """Mean SSIM between two ``(C, H, W)`` or ``(H, W)`` images in [0, 1]."""
    a = np.asarray(image_a, dtype=np.float64)
    b = np.asarray(image_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 2:
        return _ssim_single(a, b, window)
    if a.ndim == 3:
        return float(np.mean([_ssim_single(a[c], b[c], window)
                              for c in range(a.shape[0])]))
    raise ShapeError(f"expected 2-D or 3-D image, got shape {a.shape}")

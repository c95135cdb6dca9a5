"""Landmark heatmap construction and sub-pixel extraction operators.

All extraction operators share one preprocessing step: negative activations
are suppressed (``max(H, 0)``) before any centroid is formed.  Four
differentiable operators are provided, ordered from cheapest to widest
support:

* ``bilinear_expectation``   global weighted centroid (baseline)
* ``coarse_to_fine_expectation``  detached argmax + centroid of the 7x7 block
  around it, robust to multi-modal heatmaps at coarse scales
* ``biquadratic_expectation``  two-pass centroid; pass two reweights the 4x4
  block around the first centroid by a quadratic falloff kernel
* ``bicubic_expectation``    the same with separable cubic kernels

Operators run once on a whole stack of maps, ``(..., H, W)``: leading axes
are a batch and each map reduces on its own, so they return ``(..., 2)``
landmarks, (x, y) on the last axis in heatmap pixel units.  Only the global
centroids read whole maps (through their row and column sums); every second
pass reads a small block of each map.  Input may be an array
or an array-valued :class:`~balltrack.autodiff.Dual`, in which case tangents
propagate through everything except the detached argmax.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = [
    "EPS",
    "gaussian_target",
    "default_target_sigma",
    "hard_argmax",
    "bilinear_expectation",
    "coarse_to_fine_expectation",
    "biquadratic_expectation",
    "bicubic_expectation",
]

EPS = 1e-8  # denominator regularizer for empty heatmaps


def default_target_sigma(scale: int) -> float:
    """Target blob width: 2 px at full resolution, shrunk with the scale."""
    return 2.0 * scale / 224.0


def gaussian_target(center, size: int, sigma: float) -> np.ndarray:
    """Unit-peak Gaussian heatmap of shape (size, size) centered at (x, y)."""
    cx, cy = float(center[0]), float(center[1])
    ii = np.arange(size, dtype=float)[:, None]
    jj = np.arange(size, dtype=float)[None, :]
    return np.exp(-((jj - cx) ** 2 + (ii - cy) ** 2) / (2.0 * sigma * sigma))


def hard_argmax(hm):
    """Integer ``(..., 2)`` (x, y) of each map's maximum; ties go to the smallest flat index."""
    values = np.asarray(ad.value(hm))
    *lead, h, w = values.shape
    k = np.argmax(values.reshape(*lead, h * w), axis=-1)
    return np.stack([k % w, k // w], axis=-1)


def _centroid(weights, corner=(0, 0)):
    """(..., 2) centroid, in map coordinates, of (..., h, w) weights whose top-left
    pixel is at the (..., 2) ``corner``; formed from the row and column sums."""
    corner = np.asarray(corner, dtype=float)
    cols, rows = ad.asum(weights, axis=-2), ad.asum(weights, axis=-1)
    total = ad.asum(cols, axis=-1) + EPS
    x = ad.asum(cols * (corner[..., :1] + np.arange(cols.shape[-1])), axis=-1) / total
    y = ad.asum(rows * (corner[..., 1:] + np.arange(rows.shape[-1])), axis=-1) / total
    return ad.stack([x, y])


def _block(hm, corner, k):
    """(..., k, k) block of (..., H, W) maps starting at the (..., 2) integer
    ``corner``; pixels that fall off the map read as 0."""
    *lead, h, w = np.shape(ad.value(hm))
    rows, cols = corner[..., 1, None] + np.arange(k), corner[..., 0, None] + np.arange(k)
    batch = tuple(ix[..., None, None] for ix in np.indices(lead, sparse=True))
    block = hm[(*batch, np.clip(rows, 0, h - 1)[..., :, None], np.clip(cols, 0, w - 1)[..., None, :])]
    inside = ((rows >= 0) & (rows < h))[..., :, None] & ((cols >= 0) & (cols < w))[..., None, :]
    return ad.where(inside, block, 0.0)


def bilinear_expectation(hm):
    """Global weighted centroid of the rectified heatmap."""
    return _centroid(ad.relu(hm))


def coarse_to_fine_expectation(hm):
    """Centroid restricted to the 7x7 window around the (detached) peak.

    The argmax step carries no derivative; gradients flow through the local
    centroid only.  The window is clipped at the grid border.
    """
    hm = ad.relu(hm)
    corner = hard_argmax(hm) - 3
    return _centroid(_block(hm, corner, 7), corner)


def _two_pass(hm, kernel):
    """Centroid reweighted by ``kernel(dx, dy)`` around the first one; both kernels
    vanish at |d| >= 2, so pass two reads the 4x4 block at ``floor(first) - 1``."""
    hm = ad.relu(hm)
    first = _centroid(hm)
    corner = np.floor(ad.value(first)).astype(int) - 1
    d = corner[..., None, :] + np.arange(4)[:, None] - first[..., None, :]  # (..., 4, 2)
    weights = kernel(d[..., None, :, 0], d[..., :, None, 1])
    return _centroid(weights * _block(hm, corner, 4), corner)


def biquadratic_expectation(hm):
    """Two-pass centroid; pass two reweights with 1 - d^2/4 (clipped at 0)."""
    return _two_pass(hm, lambda dx, dy: ad.relu(1.0 - (dx * dx + dy * dy) / 4.0))


def bicubic_expectation(hm):
    """Two-pass centroid with separable cubic kernels max(1 - |d|^3/8, 0)."""
    return _two_pass(hm, lambda dx, dy: ad.relu(1.0 - ad.absolute(dx) ** 3 / 8.0)
                     * ad.relu(1.0 - ad.absolute(dy) ** 3 / 8.0))


def expectation_for_scale(scale: int):
    """The operator used at each pyramid scale."""
    return {56: coarse_to_fine_expectation, 112: biquadratic_expectation, 224: bicubic_expectation}[scale]

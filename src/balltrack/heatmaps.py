"""Landmark heatmap construction and sub-pixel extraction operators.

All extraction operators share one preprocessing step: negative activations
are suppressed (``max(H, 0)``) before any centroid is formed.  Four
differentiable operators are provided, ordered from cheapest to widest
support:

* ``bilinear_expectation``   global weighted centroid (baseline)
* ``coarse_to_fine_expectation``  detached argmax + local window centroid,
  robust to multi-modal heatmaps at coarse scales
* ``biquadratic_expectation``  two-pass centroid reweighted by a quadratic
  falloff kernel
* ``bicubic_expectation``    two-pass centroid with separable cubic kernels

Operators take a map or a stack of maps, ``(..., H, W)``: leading axes are
a batch and each map reduces on its own, so the (x, y) coordinates they
return are ``(...)``-shaped, in heatmap pixel units.  Input may be an array
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
    """Integer (x, y) of the maximum of each map; ties go to the smallest flat index."""
    values = np.asarray(ad.value(hm))
    *lead, h, w = values.shape
    k = np.argmax(values.reshape(*lead, h * w), axis=-1)
    return k % w, k // w


def _grids(shape):
    ii = np.arange(shape[-2], dtype=float)[:, None]
    jj = np.arange(shape[-1], dtype=float)[None, :]
    return ii, jj


def _centroid(weights, ii, jj):
    total = ad.asum(weights, axis=(-2, -1)) + EPS
    x = ad.asum(weights * jj, axis=(-2, -1)) / total
    y = ad.asum(weights * ii, axis=(-2, -1)) / total
    return x, y


def bilinear_expectation(hm):
    """Global weighted centroid of the rectified heatmap."""
    hm = ad.relu(hm)
    ii, jj = _grids(np.shape(ad.value(hm)))
    return _centroid(hm, ii, jj)


def coarse_to_fine_expectation(hm, window_radius: int = 3):
    """Centroid restricted to a window around the (detached) peak.

    The argmax step carries no derivative; gradients flow through the local
    centroid only.  The window is a mask, so it is clipped at the grid border.
    """
    hm = ad.relu(hm)
    ii, jj = _grids(np.shape(ad.value(hm)))
    xc, yc = hard_argmax(hm)
    inside = ((np.abs(ii - yc[..., None, None]) <= window_radius)
              & (np.abs(jj - xc[..., None, None]) <= window_radius))
    return _centroid(ad.where(inside, hm, 0.0), ii, jj)


def biquadratic_expectation(hm):
    """Two-pass centroid; pass two reweights with 1 - d^2/4 (clipped at 0)."""
    hm = ad.relu(hm)
    ii, jj = _grids(np.shape(ad.value(hm)))
    xbar, ybar = _centroid(hm, ii, jj)
    dx = jj - xbar[..., None, None]
    dy = ii - ybar[..., None, None]
    w = ad.relu(1.0 - (dx * dx + dy * dy) / 4.0)
    return _centroid(w * hm, ii, jj)


def bicubic_expectation(hm):
    """Two-pass centroid with separable cubic kernels max(1 - |d|^3/8, 0)."""
    hm = ad.relu(hm)
    ii, jj = _grids(np.shape(ad.value(hm)))
    xbar, ybar = _centroid(hm, ii, jj)
    wx = ad.relu(1.0 - ad.absolute(jj - xbar[..., None, None]) ** 3 / 8.0)
    wy = ad.relu(1.0 - ad.absolute(ii - ybar[..., None, None]) ** 3 / 8.0)
    return _centroid(wx * wy * hm, ii, jj)


def expectation_for_scale(scale: int):
    """The operator used at each pyramid scale."""
    return {
        56: coarse_to_fine_expectation,
        112: biquadratic_expectation,
        224: bicubic_expectation,
    }[scale]

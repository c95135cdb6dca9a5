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
centroids and the argmax read whole maps (the centroids through their row
and column sums); every second pass reads a small block of each map.  Input
may be an array or an array-valued :class:`~balltrack.autodiff.Dual`, in
which case tangents propagate through everything except the detached argmax.

``hard_argmax`` and the operators also take a :class:`RowBands`: maps held
as windows of rows, each map non-negative and zero outside its window, all
windows of one common height.  They then read the windows only; windows as
tall as the maps are the maps themselves.  The row sums of a window are
placed in full-length vectors, zeros included, so every sum runs in the
order of the whole map's and the landmarks keep its bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad

__all__ = [
    "EPS",
    "RowBands",
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


def _gaussian(shape, center, sigma: float) -> np.ndarray:
    """Unit-peak Gaussian image of ``shape`` (H, W) centered at (x, y)."""
    cx, cy = float(center[0]), float(center[1])
    ii = np.arange(shape[0], dtype=float)[:, None]
    jj = np.arange(shape[1], dtype=float)[None, :]
    return np.exp(-((jj - cx) ** 2 + (ii - cy) ** 2) / (2.0 * sigma * sigma))


def gaussian_target(center, size: int, sigma: float) -> np.ndarray:
    """Unit-peak Gaussian heatmap of shape (size, size) centered at (x, y)."""
    return _gaussian((size, size), center, sigma)


class RowBands(NamedTuple):
    """(..., H, W) maps held as windows of their rows: map ``i`` is
    ``windows[i]`` at rows ``[first[i], first[i] + b)`` and zero elsewhere,
    for (..., b, W) ``windows`` (an array or an array-valued ``Dual``), (...,)
    integer ``first`` and ``height`` H."""

    windows: np.ndarray | ad.Dual
    first: np.ndarray
    height: int

    def dense(self):
        """The (..., H, W) maps; the windows themselves when they are as tall."""
        return _unband(self.windows, self.first, self.height, axis=-2)


def _bands(hm) -> RowBands:
    """``hm`` as row windows: a :class:`RowBands` itself, maps as windows of their full height."""
    if isinstance(hm, RowBands):
        return hm
    *lead, h, _ = np.shape(ad.value(hm))
    return RowBands(hm, np.zeros(lead, int), h)


def _unband(x, first, n, axis=-1):
    """Zeros of length n along ``axis`` (-1, or -2 for rows of maps) holding
    the m values ``x`` of row windows there at their ``first`` rows; ``x``
    itself when m == n."""
    m = np.shape(ad.value(x))[axis]
    if m == n:
        return x
    at = first[..., None] + np.arange(m)
    if axis == -2:  # whole rows: one index for every column
        at = at[..., None]

    def place(v):
        out = np.zeros((*v.shape[:axis], n, *v.shape[axis:][1:]))
        np.put_along_axis(out, at, v, axis=axis)
        return out

    if isinstance(x, ad.Dual):
        return ad.Dual(place(x.value), place(np.broadcast_to(x.tangent, np.shape(x.value))))
    return place(x)


def _argmax(window, first, h):
    """Flat-index argmax of maps seen through row windows (see :class:`RowBands`)
    as (..., 2) integer (x, y); a window with no positive value gives (0, 0),
    the first of the zeros around it."""
    *lead, height, w = window.shape
    flat = window.reshape(*lead, height * w)
    k = np.argmax(flat, axis=-1)
    if height < h:
        k = np.where(np.take_along_axis(flat, k[..., None], axis=-1)[..., 0] > 0, k + first * w, 0)
    return np.stack([k % w, k // w], axis=-1)


def hard_argmax(hm):
    """Integer ``(..., 2)`` (x, y) of each map's maximum; ties go to the smallest flat index.

    Of a :class:`RowBands` only the windows are searched, and a map of zeros gives (0, 0).
    """
    window, first, h = _bands(hm)
    return _argmax(np.asarray(ad.value(window)), first, h)


def _centroid(cols, rows, corner=(0, 0)):
    """(..., 2) centroid, in map coordinates, of weights with (..., w) column
    sums ``cols`` and (..., h) row sums ``rows`` whose top-left pixel is at the
    (..., 2) ``corner``."""
    corner = np.asarray(corner, dtype=float)
    total = ad.asum(cols, axis=-1) + EPS
    x = ad.asum(cols * (corner[..., :1] + np.arange(cols.shape[-1])), axis=-1) / total
    y = ad.asum(rows * (corner[..., 1:] + np.arange(rows.shape[-1])), axis=-1) / total
    return ad.stack([x, y])


def _block_centroid(block, corner):
    return _centroid(ad.asum(block, axis=-2), ad.asum(block, axis=-1), corner)


def _global_centroid(window, first, h):
    """Centroid of whole maps from their row windows; the row sums go back
    to full length, so the sums keep the whole maps' order."""
    return _centroid(ad.asum(window, axis=-2), _unband(ad.asum(window, axis=-1), first, h))


def _block(window, corner, k, first):
    """(..., k, k) block of maps seen through row windows, starting at the
    (..., 2) integer ``corner`` in map coordinates; pixels that fall off the
    window read as 0, as the map holds there."""
    *lead, h, w = np.shape(ad.value(window))
    rows, cols = corner[..., 1, None] - first[..., None] + np.arange(k), corner[..., 0, None] + np.arange(k)
    batch = tuple(ix[..., None, None] for ix in np.indices(lead, sparse=True))
    block = window[(*batch, np.clip(rows, 0, h - 1)[..., :, None], np.clip(cols, 0, w - 1)[..., None, :])]
    inside = ((rows >= 0) & (rows < h))[..., :, None] & ((cols >= 0) & (cols < w))[..., None, :]
    return ad.where(inside, block, 0.0)


def _rectified(hm):
    """Rectified row windows of the maps, their first rows and the map height."""
    window, first, h = _bands(hm)
    return ad.relu(window), first, h


def bilinear_expectation(hm):
    """Global weighted centroid of the rectified heatmap."""
    return _global_centroid(*_rectified(hm))


def coarse_to_fine_expectation(hm):
    """Centroid restricted to the 7x7 window around the (detached) peak.

    The argmax step carries no derivative; gradients flow through the local
    centroid only.  The window is clipped at the grid border.
    """
    window, first, h = _rectified(hm)
    corner = _argmax(ad.value(window), first, h) - 3
    return _block_centroid(_block(window, corner, 7, first), corner)


def _two_pass(hm, kernel):
    """Centroid reweighted by ``kernel(dx, dy)`` around the first one; both kernels
    vanish at |d| >= 2, so pass two reads the 4x4 block at ``floor(first) - 1``."""
    window, first, h = _rectified(hm)
    center = _global_centroid(window, first, h)
    corner = np.floor(ad.value(center)).astype(int) - 1
    d = corner[..., None, :] + np.arange(4)[:, None] - center[..., None, :]  # (..., 4, 2)
    weights = kernel(d[..., None, :, 0], d[..., :, None, 1])
    return _block_centroid(weights * _block(window, corner, 4, first), corner)


def biquadratic_expectation(hm):
    """Two-pass centroid; pass two reweights with 1 - d^2/4 (clipped at 0)."""
    return _two_pass(hm, lambda dx, dy: ad.relu(1.0 - (dx * dx + dy * dy) / 4.0))


def bicubic_expectation(hm):
    """Two-pass centroid with separable cubic kernels max(1 - |d|^3/8, 0)."""
    return _two_pass(hm, lambda dx, dy: ad.relu(1.0 - ad.absolute(dx) ** 3 / 8.0)
                     * ad.relu(1.0 - ad.absolute(dy) ** 3 / 8.0))

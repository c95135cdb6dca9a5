"""Loss functions for heatmap tracking with physics constraints.

The family covers image reconstruction (pixel BCE and a Gaussian-masked
variant focused near the ball), focal heatmap supervision, and the two
physics losses: an unsupervised consistency term comparing landmarks to
their physics-refined counterparts, and a supervised term comparing physics
outputs to simulator ground truth.  Physics losses are typically ramped in
over the first epochs; ``ramp_weight`` gives the schedule.

Image losses take ``(..., H, W)`` maps and physics losses 3-frame windows,
as :class:`~balltrack.sim.Trajectory` (the refinement's output and the
simulator's truth) or as ``(..., 3, 2)`` landmarks; leading axes are a batch
and each returns one value per map or window.  All losses accept duals (see
:mod:`balltrack.autodiff`) wherever the quantity is differentiable, and every
loss is zero on its exact-match input (up to the focal clamping tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .heatmaps import _gaussian
from .sim import Trajectory

__all__ = [
    "LossWeights",
    "LossComponents",
    "bce_reconstruction",
    "cone_loss",
    "focal_heatmap_loss",
    "physics_consistency_loss",
    "physics_supervised_loss",
    "ramp_weight",
    "total_loss",
]

_FOCAL_CLAMP = 1e-6
_MAP = (-2, -1)  # the event axes of a map and of a window


@dataclass(frozen=True)
class LossWeights:
    """Ramp schedules for the physics losses.

    The bounce term's weight is an argument of :func:`physics_supervised_loss`.
    """

    consistency_w_min: float = 0.01
    consistency_ramp_epochs: int = 10
    supervised_w_min: float = 0.001
    supervised_ramp_epochs: int = 20

    def __post_init__(self):
        for w in (self.consistency_w_min, self.supervised_w_min):
            if not 0.0 < w <= 1.0:
                raise ValueError("ramp floor must lie in (0, 1]")
        for t in (self.consistency_ramp_epochs, self.supervised_ramp_epochs):
            if t < 1:
                raise ValueError("ramp length must be >= 1 epoch")


@dataclass
class LossComponents:
    """Per-term values feeding the total; inactive terms stay at zero."""

    reconstruction: float = 0.0
    cone: float = 0.0
    heatmap: float = 0.0
    physics_consistency: float = 0.0
    physics_supervised: float = 0.0


def _check_shapes(a, b, name):
    sa, sb = np.shape(ad.value(a))[-2:], np.shape(ad.value(b))[-2:]
    if sa != sb:
        raise ValueError(f"{name}: map shape mismatch {sa} vs {sb}")


def bce_reconstruction(logits, target):
    """Per-map mean binary cross-entropy with the prediction in logit space.

    Uses the max/softplus form, stable for large |logit|.
    """
    _check_shapes(logits, target, "bce_reconstruction")
    return ad.amean(ad.relu(logits) - logits * target + ad.softplus(-ad.absolute(logits)), _MAP)


def cone_mask(shape, center, radius_px: float) -> np.ndarray:
    """Unit-peak Gaussian mask with sigma = 3 * ball radius."""
    return _gaussian(shape, center, 3.0 * radius_px)


def cone_loss(recon, target, center, radius_px: float):
    """Per-map mean absolute error weighted by a Gaussian mask around the ball.

    ``center`` is the predicted ball location when unsupervised, the ground
    truth when supervision is available; either way it is treated as a
    constant (no derivative is taken through the mask).
    """
    _check_shapes(recon, target, "cone_loss")
    mask = cone_mask(np.shape(ad.value(recon))[-2:], center, radius_px)
    return ad.amean(ad.absolute(recon - target) * mask, _MAP)


def focal_heatmap_loss(hm, target):
    """Per-map focal loss that sharpens peaks and suppresses background.

    Positive pixels are those with target > 0.5; each map's loss is
    normalized by its count (floored at one for empty targets).
    Predictions are clamped to [1e-6, 1 - 1e-6] before the logs.
    """
    h = ad.clip(hm, _FOCAL_CLAMP, 1.0 - _FOCAL_CLAMP)
    target = np.asarray(target, dtype=float)
    positive = target > 0.5
    n_pos = np.maximum(np.count_nonzero(positive, axis=_MAP), 1)

    pos_term = ad.where(positive, (1.0 - h) ** 2 * ad.log(h), 0.0 * h)
    neg_term = (1.0 - target) ** 4 * h * h * ad.log(1.0 - h)
    return -(ad.asum(pos_term, _MAP) + ad.asum(neg_term, _MAP)) / n_pos


def physics_consistency_loss(window: Trajectory, landmarks, last_frame_only: bool = False):
    """Unsupervised physics loss: landmarks vs. their refined counterparts.

    ``window`` is the physics refinement of ``landmarks``, an ``(..., 3, 2)``
    array or dual in image coordinates (heatmap landmarks scaled by 4, 2 or
    1 for the 56, 112 and 224 grids).  Per window, the loss is the L1 gap
    between refined positions and landmarks, averaged over the frames; with
    ``last_frame_only`` just the final frame contributes, a cheaper variant
    that skips the frames the integrator interpolates exactly.
    """
    gap = ad.absolute(window.positions_px - landmarks)
    if last_frame_only:
        gap = gap[..., 2:, :]
    return ad.asum(gap, _MAP) / gap.shape[-2]


def physics_supervised_loss(window: Trajectory, truth: Trajectory, bounce_weight: float = 0.01,
                            bounce_bce: bool = False):
    """Supervised physics loss of each window against simulator ground truth.

    ``window`` is the physics refinement and ``truth`` the simulator's
    windows, both :class:`~balltrack.sim.Trajectory` of ``(..., 3)`` frames.
    Position and velocity terms are mean absolute errors over the (3, 2)
    window entries; the bounce term compares indicators as 0/1 values,
    either as a weighted L1 (default) or as a clamped BCE.
    """
    gt_b = np.asarray(truth.bounce_flags, dtype=float)
    pos = ad.asum(ad.absolute(window.positions_px - np.asarray(truth.positions_px, float)), _MAP) / 6.0
    vel = ad.asum(ad.absolute(window.velocities_fu - np.asarray(truth.velocities_fu, float)), _MAP) / 6.0

    b_pred = np.asarray(window.bounce_flags, dtype=float)
    if bounce_bce:
        p = np.clip(b_pred, _FOCAL_CLAMP, 1.0 - _FOCAL_CLAMP)
        bounce = np.mean(-(gt_b * np.log(p) + (1.0 - gt_b) * np.log(1.0 - p)), axis=-1)
    else:
        bounce = np.mean(np.abs(b_pred - gt_b), axis=-1)
    return pos + vel + bounce_weight * bounce


def ramp_weight(epoch: int, w_min: float, ramp_epochs: int) -> float:
    """Linear ramp from w_min to 1 over the first ``ramp_epochs`` epochs."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return w_min + (1.0 - w_min) * min(1.0, epoch / ramp_epochs)


def total_loss(components: LossComponents, epoch: int, weights: LossWeights = LossWeights()):
    """Ramped sum of all loss terms; inactive components contribute zero."""
    w_cons = ramp_weight(epoch, weights.consistency_w_min, weights.consistency_ramp_epochs)
    w_sup = ramp_weight(epoch, weights.supervised_w_min, weights.supervised_ramp_epochs)
    return (
        components.reconstruction
        + components.cone
        + components.heatmap
        + w_cons * components.physics_consistency
        + w_sup * components.physics_supervised
    )

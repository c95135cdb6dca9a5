"""The loss family on perfect and perturbed inputs, plus the ramp schedule.

Reconstruction losses act on images, the focal loss on heatmaps, and the
two physics losses on landmark windows: the consistency loss needs no
labels (landmarks vs their own refinement), the supervised loss compares
physics outputs against simulator ground truth.
"""

import numpy as np

from balltrack import SimConfig, to_frame_units
from balltrack.heatmaps import gaussian_target
from balltrack.losses import (
    LossComponents,
    bce_reconstruction,
    cone_loss,
    focal_heatmap_loss,
    physics_consistency_loss,
    physics_supervised_loss,
    ramp_weight,
    total_loss,
)
from balltrack.physics import physics_refine_window
from balltrack.sim import Trajectory

cfg = SimConfig()
params = to_frame_units(cfg)
g = params.g_frame

target = np.zeros((56, 56))
target[30, 23] = 1.0
perfect_logits = np.where(target > 0.5, 20.0, -20.0)
print(f"BCE, perfect logits : {bce_reconstruction(perfect_logits, target):.2e}")
print(f"BCE, zero logits    : {bce_reconstruction(np.zeros_like(target), target):.4f}")

hm = gaussian_target((23, 30), 56, 0.5)
print(f"focal, sharp peak   : {focal_heatmap_loss(np.clip(hm, 0, 1), target):.4f}")
print(f"focal, uniform 0.5  : {focal_heatmap_loss(np.full_like(target, 0.5), target):.4f}")
print(f"cone, exact recon   : {cone_loss(target, target, (23, 30), cfg.radius_px):.4f}")

exact = np.array([(100.0 + 4 * t, 80.0 + 3 * t + 0.5 * g * t * t) for t in range(3)])
win = physics_refine_window(exact, params)
print(f"\nconsistency loss on exact parabola : {float(physics_consistency_loss(win, exact)):.2e}")
for delta in (0.25, 0.5, 1.0):
    bumped = exact + np.array([(0.0, 0.0), (0.0, delta), (0.0, 0.0)])
    val = float(physics_consistency_loss(physics_refine_window(bumped, params), bumped))
    print(f"  middle frame bumped {delta:4.2f} px in y -> {val:.4f}")

truth = Trajectory(win.positions_px + 1.0, win.velocities_fu, np.zeros(3, bool))
sup = physics_supervised_loss(win, truth)
print(f"supervised loss, 1 px offset everywhere: {float(sup):.4f}")

print("\nramp schedules (consistency: floor 0.01 over 10 epochs; "
      "supervised: floor 0.001 over 20):")
for e in (0, 5, 10, 20, 30):
    wc = ramp_weight(e, 0.01, 10)
    ws = ramp_weight(e, 0.001, 20)
    tot = total_loss(LossComponents(physics_consistency=1.0, physics_supervised=1.0), e)
    print(f"  epoch {e:2d}: w_consistency {wc:.3f}  w_supervised {ws:.4f}  total {tot:.4f}")

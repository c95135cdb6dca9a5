"""Simulate a bouncing ball and inspect the ground truth it produces.

The simulator works in meters/seconds and projects to pixels at the end.
Frame units make the numbers friendly: gravity becomes 0.7848 px/frame^2,
so between consecutive frames a free-falling ball gains 0.7848 px/frame of
downward velocity.
"""

import numpy as np

from balltrack import SimConfig, simulate_trajectory, to_frame_units
from balltrack.rng import RandomStream

cfg = SimConfig()
params = to_frame_units(cfg)
print(f"gravity in frame units : {params.g_frame} px/frame^2")
print(f"per-frame displacement : {0.5 * params.g_frame} px (from rest)")
print(f"max initial speed      : {params.v_max_frame} px/frame per component")
print(f"valid center region    : [{params.center_min}, {params.center_max}] px on both axes")

traj = simulate_trajectory(cfg, RandomStream.from_seed(cfg.seed, "demo", 0))
print(f"\nsimulated {len(traj)} frames, {int(traj.bounce_flags.sum())} bounces")
print("first five positions [px]:")
for t in range(5):
    x, y = traj.positions_px[t]
    vx, vy = traj.velocities_fu[t]
    print(f"  t={t}: p=({x:7.2f}, {y:7.2f})  v=({vx:+6.2f}, {vy:+6.2f}) px/frame")

# on bounce-free stretches, y is an exact parabola: its second difference
# equals g_frame to machine precision
y = traj.positions_px[:, 1]
free = ~(traj.bounce_flags[1:-1] | traj.bounce_flags[2:])
d2 = (y[2:] - 2 * y[1:-1] + y[:-2])[free]
print(f"\nsecond differences of y on {free.sum()} bounce-free windows:")
print(f"  min {d2.min():.12f}  max {d2.max():.12f}  (g_frame = {params.g_frame})")

# restitution drains speed at every wall contact
impacts = np.flatnonzero(traj.bounce_flags)
print(f"\nspeed before/after each bounce [px/frame]:")
for t in impacts:
    before = np.hypot(*traj.velocities_fu[t - 1])
    after = np.hypot(*traj.velocities_fu[t])
    print(f"  frame {t:2d}: {before:6.2f} -> {after:6.2f}")

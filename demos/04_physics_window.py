"""The differentiable ballistic refinement over 3-frame windows.

Exact ballistic samples are a fixed point; noisy landmarks get pulled onto
the constant-gravity parabola through the window endpoints; windows that
straddle a wall reflection report a bounce indicator.  Everything is
differentiable in the landmark coordinates, verified here against central
finite differences.
"""

import numpy as np

import balltrack.autodiff as ad
from balltrack import SimConfig, physics_refine_window, to_frame_units

cfg = SimConfig()
params = to_frame_units(cfg)
g = params.g_frame

# an exact parabola through three frames, one (x, y) row per frame
p0, v = (100.0, 80.0), (4.0, 3.0)
exact = np.array([
    (p0[0] + v[0] * t, p0[1] + v[1] * t + 0.5 * g * t * t) for t in range(3)
])
win = physics_refine_window(exact, params)
print("exact ballistic window is a fixed point:")
print(f"  max |refined - landmark| = {np.abs(win.positions_px - exact).max():.2e} px")

# jitter the middle landmark: the refinement ignores it and stays on the
# parabola through the endpoints
noisy = exact + np.array([(0.0, 0.0), (0.8, -1.1), (0.0, 0.0)])
win = physics_refine_window(noisy, params)
pos = win.positions_px
print("\nmiddle landmark jittered by (0.8, -1.1) px:")
print(f"  refined middle frame ({pos[1][0]:.3f}, {pos[1][1]:.3f}) "
      f"vs clean ({exact[1][0]:.3f}, {exact[1][1]:.3f})")

# a window straddling the floor: the integrator detects and reflects
drop = np.array([(100.0, 215.0), (100.0, 219.5), (100.0, 218.0)])
win = physics_refine_window(drop, params)
pos, vel, bounced = win.positions_px, win.velocities_fu, win.bounce_flags
print(f"\nfloor-straddling window: bounce indicators {bounced.tolist()}")
print(f"  refined positions y: {[f'{p[1]:.2f}' for p in pos]}")
print(f"  velocities vy:       {[f'{v[1]:+.2f}' for v in vel]}")

# derivative check: forward mode vs central differences on the map from
# (..., 6) landmarks to (..., 12) refined positions then velocities
def f(x):
    win = physics_refine_window(x.reshape(*x.shape[:-1], 3, 2), params)
    return ad.stack([win.positions_px, win.velocities_fu], axis=-3).reshape(*x.shape[:-1], 12)


x = exact.ravel()
err = ad.max_relative_error(ad.jacobian_fd(f, x), ad.jacobian_forward(f, x))
print(f"\nforward-mode vs finite-difference jacobian: max rel err {err:.2e}")

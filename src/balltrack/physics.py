"""Differentiable ballistic model over 3-frame windows, in frame units.

Frame units measure time in frames (dt = 1) and length in pixels, which
keeps velocities O(10) instead of amplifying position error by 1/dt when
differencing.  Gravity converts as g_frame = (g / S) * dt^2; for the default
setup that is 0.7848 px/frame^2, giving a per-frame free-fall displacement
of 0.3924 px and velocity change of 0.7848 px/frame.

Given three landmark positions (t-1, t, t+1) the model estimates the
velocity by forward difference, advances twice with a velocity-Verlet step
that mirrors wall overshoots and rescales the reflected velocity component
by -e, and records per-step bounce indicators.  Windows with no detected
bounce are replaced by the exact constant-gravity parabola through the two
endpoint landmarks.

Every coordinate may be a float, a dual or an ``(N,)`` array (a batch of N
windows), and one code path serves all three: branches select by value
with :func:`~balltrack.autodiff.where`, so derivatives follow the branch
actually taken and all outputs are differentiable in the input landmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .sim import SimConfig

__all__ = [
    "FrameUnitParams",
    "PhysicsWindow",
    "to_frame_units",
    "init_velocity",
    "verlet_step_with_bounce",
    "smooth_correction",
    "physics_refine_window",
    "window_arrays",
]


@dataclass(frozen=True)
class FrameUnitParams:
    """Constants of the ballistic model in frame units."""

    g_frame: float          # px/frame^2
    restitution: float
    x_min: float            # valid region for the ball center [px]
    x_max: float
    y_min: float
    y_max: float
    v_max_frame: float      # px/frame


@dataclass
class PhysicsWindow:
    """Physics outputs for one 3-frame window (frame-unit px, px/frame).

    positions/velocities are 3-tuples of (x, y) pairs; bounced[0] is always
    False because no step precedes the first frame.  For a batch of windows
    every component and the other two flags are ``(N,)`` arrays.
    """

    positions: tuple
    velocities: tuple
    bounced: tuple


def to_frame_units(cfg: SimConfig) -> FrameUnitParams:
    """Convert a physical configuration to frame units."""
    g_frame = (cfg.gravity / cfg.scale) * cfg.dt * cfg.dt
    return FrameUnitParams(
        g_frame=g_frame,
        restitution=cfg.restitution,
        x_min=cfg.center_min_px,
        x_max=cfg.center_max_px,
        y_min=cfg.center_min_px,
        y_max=cfg.center_max_px,
        v_max_frame=cfg.v_max * cfg.dt / cfg.scale,
    )


def init_velocity(p_prev, p_cur):
    """Forward difference over the first two frames (dt = 1).

    Deliberately independent of the third frame so that bounce detection in
    the subsequent integration is not contaminated by it.
    """
    return p_cur[0] - p_prev[0], p_cur[1] - p_prev[1]


def _mirror(raw, v, lo, hi, e):
    """Value-select reflection: mirror position overshoot, scale v by -e."""
    low = ad.value(raw) < lo
    bounced = low | (ad.value(raw) > hi)
    wall = ad.where(low, lo, hi)
    return ad.where(bounced, 2.0 * wall - raw, raw), ad.where(bounced, -e * v, v), bounced


def verlet_step_with_bounce(p, v, params: FrameUnitParams):
    """One velocity-Verlet step with reflection and boundary clamping.

    The vertical reflection applies to the half-step velocity
    ``vy + g/2``; the second half-kick is added afterwards.  Horizontal
    motion has no acceleration, so its reflection uses the full-step
    velocity.  Returns (position, velocity, (bounced_x, bounced_y)).
    """
    g, e = params.g_frame, params.restitution
    x, y = p
    vx, vy = v

    x_raw = x + vx
    y_raw = y + vy + 0.5 * g
    vy_half = vy + 0.5 * g

    x_new, vx_new, bx = _mirror(x_raw, vx, params.x_min, params.x_max, e)
    y_new, vy_half, by = _mirror(y_raw, vy_half, params.y_min, params.y_max, e)
    vy_new = vy_half + 0.5 * g

    x_new = ad.clip(x_new, params.x_min, params.x_max)
    y_new = ad.clip(y_new, params.y_min, params.y_max)
    return (x_new, y_new), (vx_new, vy_new), (bx, by)


def smooth_correction(p_tm1, p_tp1, params: FrameUnitParams):
    """Exact constant-gravity parabola through the two endpoint landmarks.

    The middle landmark is deliberately ignored: the central velocity fixes
    the parabola, which makes three exact ballistic samples a fixed point
    of the window refinement.
    """
    g = params.g_frame
    vx = (p_tp1[0] - p_tm1[0]) * 0.5
    v_mid_y = (p_tp1[1] - p_tm1[1]) * 0.5
    vy0 = v_mid_y - g  # left-edge vertical velocity

    x0, y0 = p_tm1
    positions = (
        (x0, y0),
        (x0 + vx, y0 + vy0 + 0.5 * g),
        (x0 + 2.0 * vx, y0 + 2.0 * vy0 + 2.0 * g),
    )
    velocities = ((vx, vy0), (vx, vy0 + g), (vx, vy0 + 2.0 * g))
    return positions, velocities


def physics_refine_window(landmarks, params: FrameUnitParams) -> PhysicsWindow:
    """Refine three landmark positions into a physically consistent window.

    ``landmarks`` is a sequence of three (x, y) pairs in image-scale pixel
    coordinates; each coordinate is a float, a dual or an ``(N,)`` array,
    so an ``(3, 2, N)`` array refines N windows at once.  The first position
    passes through unchanged; the other two come from the integrator, or
    from the exact parabola when neither step detected a bounce.
    """
    p0, p1_in, p2_in = ((lm[0], lm[1]) for lm in landmarks)
    v0 = init_velocity(p0, p1_in)
    p1, v1, (bx1, by1) = verlet_step_with_bounce(p0, v0, params)
    p2, v2, (bx2, by2) = verlet_step_with_bounce(p1, v1, params)
    b1, b2 = bx1 | by1, bx2 | by2
    either = b1 | b2
    smooth_pos, smooth_vel = smooth_correction(p0, p2_in, params)

    def pick(integrated, smooth):
        return ad.where(either, integrated, smooth)

    positions = tuple((ad.clip(pick(p[0], s[0]), params.x_min, params.x_max),
                       ad.clip(pick(p[1], s[1]), params.y_min, params.y_max))
                      for p, s in zip((p0, p1, p2), smooth_pos))
    velocities = tuple((pick(v[0], s[0]), pick(v[1], s[1]))
                       for v, s in zip((v0, v1, v2), smooth_vel))
    return PhysicsWindow(positions=positions, velocities=velocities, bounced=(False, b1, b2))


def window_arrays(win: PhysicsWindow):
    """Plain arrays: positions (..., 3, 2), velocities (..., 3, 2), flags (..., 3)."""
    def stack(components, tail, dtype):
        out = np.stack(np.broadcast_arrays(*[ad.value(c) for c in components]), axis=-1)
        return out.reshape(out.shape[:-1] + tail).astype(dtype)

    return (stack([c for p in win.positions for c in p], (3, 2), float),
            stack([c for v in win.velocities for c in v], (3, 2), float),
            stack(win.bounced, (3,), bool))

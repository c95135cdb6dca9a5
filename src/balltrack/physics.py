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

Landmarks, velocities and gravity ``(0, g)`` are ``(..., 2)``, (x, y) on the
last axis; a landmark window is ``(..., 3, 2)``, leading axes a batch, and a
refined one the simulator's :class:`~balltrack.sim.Trajectory`.  One code
path serves arrays and duals alike: branches select by value with
:func:`~balltrack.autodiff.where`, so derivatives follow the branch
actually taken and all outputs are differentiable in the input landmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .sim import SimConfig, Trajectory

__all__ = [
    "FrameUnitParams",
    "to_frame_units",
    "init_velocity",
    "verlet_step_with_bounce",
    "smooth_correction",
    "physics_refine_window",
]


@dataclass(frozen=True)
class FrameUnitParams:
    """Constants of the ballistic model in frame units."""

    g_frame: float          # px/frame^2
    restitution: float
    center_min: float       # valid region for the ball center, both axes [px]
    center_max: float
    v_max_frame: float      # px/frame


def to_frame_units(cfg: SimConfig) -> FrameUnitParams:
    """Convert a physical configuration to frame units."""
    g_frame = (cfg.gravity / cfg.scale) * cfg.dt * cfg.dt
    return FrameUnitParams(
        g_frame=g_frame,
        restitution=cfg.restitution,
        center_min=cfg.center_min_px,
        center_max=cfg.center_max_px,
        v_max_frame=cfg.v_max * cfg.dt / cfg.scale,
    )


def init_velocity(p_prev, p_cur):
    """Forward difference over the first two frames (dt = 1).

    Deliberately independent of the third frame so that bounce detection in
    the subsequent integration is not contaminated by it.
    """
    return p_cur - p_prev


def verlet_step_with_bounce(p, v, params: FrameUnitParams):
    """One velocity-Verlet step with reflection and boundary clamping.

    Reflection applies to the half-step velocity ``v + (0, g/2)``; the
    second half-kick is added afterwards, so horizontal motion reflects its
    full-step velocity.  Returns the ``(..., 2)`` position and velocity and
    the ``(..., 2)`` per-axis bounce flags.
    """
    lo, hi = params.center_min, params.center_max
    half_kick = np.array([0.0, 0.5 * params.g_frame])
    raw = p + v + half_kick
    v_half = v + half_kick

    low = ad.value(raw) < lo
    bounced = low | (ad.value(raw) > hi)
    mirrored = ad.where(bounced, 2.0 * np.where(low, lo, hi) - raw, raw)
    v_half = ad.where(bounced, -params.restitution * v_half, v_half)
    return ad.clip(mirrored, lo, hi), v_half + half_kick, bounced


def smooth_correction(p_tm1, p_tp1, params: FrameUnitParams):
    """``(..., 3, 2)`` positions and velocities of the exact constant-gravity
    parabola through the two ``(..., 2)`` endpoint landmarks.

    The middle landmark is deliberately ignored: the central velocity fixes
    the parabola, which makes exact ballistic samples a fixed point.
    """
    t = np.arange(3.0)[:, None]
    kick = t * np.array([0.0, params.g_frame])  # velocity gained by frame t
    v0 = (p_tp1 - p_tm1) * 0.5 - kick[1]        # left-edge velocity
    positions = p_tm1[..., None, :] + t * v0[..., None, :] + 0.5 * t * kick
    return positions, v0[..., None, :] + kick


def physics_refine_window(landmarks, params: FrameUnitParams) -> Trajectory:
    """Refine landmark windows into physically consistent ones.

    ``landmarks`` is an ``(..., 3, 2)`` array or dual of (x, y) positions in
    image-scale pixel coordinates.  The first position passes through
    unchanged; the other two come from the integrator, or from the exact
    parabola when neither step detected a bounce.  Returns the window as a
    :class:`~balltrack.sim.Trajectory`: ``(..., 3, 2)`` positions and
    velocities (duals for dual input) and ``(..., 3)`` bool bounce flags,
    whose first is always False because no step precedes the first frame.
    """
    p0, p1_in, p2_in = (landmarks[..., t, :] for t in range(3))
    v0 = init_velocity(p0, p1_in)
    p1, v1, b1 = verlet_step_with_bounce(p0, v0, params)
    p2, v2, b2 = verlet_step_with_bounce(p1, v1, params)
    b1, b2 = b1.any(axis=-1), b2.any(axis=-1)
    either = (b1 | b2)[..., None, None]
    smooth_pos, smooth_vel = smooth_correction(p0, p2_in, params)

    positions = ad.where(either, ad.stack([p0, p1, p2], axis=-2), smooth_pos)
    return Trajectory(positions_px=ad.clip(positions, params.center_min, params.center_max),
                      velocities_fu=ad.where(either, ad.stack([v0, v1, v2], axis=-2), smooth_vel),
                      bounce_flags=np.stack([np.zeros_like(b1), b1, b2], axis=-1))

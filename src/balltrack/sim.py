"""Ground-truth simulation of a ball under constant gravity with wall bounces.

The simulator works in physical units (meters, seconds) and converts a
whole trajectory to pixels and frame units once, after its last step.
Coordinates follow the image convention: origin top-left, x right, y down,
so gravity is positive.  States are ``(2,)`` (x, y) vectors, and each step
moves both axes at once, in the ``(..., 2)`` format of :mod:`.physics`.

Boundary convention: the ball center is confined to ``[r, W-1-r]`` pixels on
each axis (the last valid pixel index is ``W-1``); an edge touch reflects.
Reflections mirror the position overshoot about the wall and rescale the
post-step velocity component by ``-e``.  Collisions are resolved per step,
not at the exact sub-step impact time.  Ground truth leaves the module as
window arrays too: :func:`trajectory_windows` gathers every 3-frame window
through the one ``(T-2, 3)`` index of :func:`window_index`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RandomStream

__all__ = [
    "SimConfig",
    "BallState",
    "Trajectory",
    "SimulationError",
    "sample_initial_conditions",
    "step_physical",
    "project_to_pixels",
    "simulate_trajectory",
    "window_index",
    "trajectory_windows",
]


class SimulationError(ValueError):
    """Raised for configurations or states the bounce model cannot resolve."""


@dataclass(frozen=True)
class SimConfig:
    """Physical and imaging parameters of one dataset.

    Defaults describe the standard setup: 224 px square frames at
    0.02 m/px, 25 fps, radius-2 ball, restitution 0.75.
    """

    image_size: int = 224          # H = W [px]
    scale: float = 0.02            # S [m/px]
    dt: float = 0.04               # [s/frame]
    gravity: float = 9.81          # g [m/s^2], positive down-screen
    restitution: float = 0.75      # e in (0, 1]
    radius_px: float = 2.0         # r [px]
    v_max: float = 11.1            # |v0| component bound [m/s]
    frames_per_video: int = 40
    noise_sigma: float = 0.0       # background noise std (intensity units)
    n_train: int = 100
    n_val: int = 50
    n_test: int = 100
    seed: int = 42

    def __post_init__(self):
        # NaN fails every comparison below, and +inf passes some of them
        if bad := [f"{name}={value}" for name, value in vars(self).items() if not math.isfinite(value)]:
            raise SimulationError(f"parameters must be finite: {', '.join(bad)}")
        if self.image_size <= 0:
            raise SimulationError("image_size must be positive")
        if self.scale <= 0 or self.dt <= 0 or self.gravity <= 0:
            raise SimulationError("scale, dt and gravity must be positive")
        if not 0.0 < self.restitution <= 1.0:
            raise SimulationError("restitution must lie in (0, 1]")
        if not 0.0 < self.radius_px < self.image_size / 2:
            raise SimulationError("radius must satisfy 0 < r < H/2")
        if self.v_max <= 0:
            raise SimulationError("v_max must be positive")
        if self.frames_per_video < 3:
            raise SimulationError("need at least 3 frames per video")
        if self.noise_sigma < 0:
            raise SimulationError("noise_sigma must be non-negative")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise SimulationError("n_train, n_val and n_test must each be at least 1")
        if self.v_max * self.dt > self.domain_width_m:
            raise SimulationError(
                "v_max*dt exceeds the domain width; a step could cross both walls"
            )

    # valid region for the ball center, pixels
    @property
    def center_min_px(self) -> float:
        return self.radius_px

    @property
    def center_max_px(self) -> float:
        return self.image_size - 1 - self.radius_px

    @property
    def domain_width_m(self) -> float:
        return (self.center_max_px - self.center_min_px) * self.scale


@dataclass
class BallState:
    """Position [m] and velocity [m/s] of the ball center."""

    position: np.ndarray
    velocity: np.ndarray


@dataclass
class Trajectory:
    """Per-frame ground truth in image units.

    positions_px: (T, 2) ball center [px]
    velocities_fu: (T, 2) velocity [px/frame]
    bounce_flags: (T,) True when a reflection occurred during the step
        ending at that frame; frame 0 is always False.
    """

    positions_px: np.ndarray
    velocities_fu: np.ndarray
    bounce_flags: np.ndarray

    def __post_init__(self):
        if not (
            len(self.positions_px) == len(self.velocities_fu) == len(self.bounce_flags)
        ):
            raise SimulationError("trajectory arrays must share a length")

    def __len__(self):
        return len(self.positions_px)


def sample_initial_conditions(cfg: SimConfig, rng: RandomStream) -> BallState:
    """Uniform start anywhere in the valid region, velocity in ±v_max."""
    lo = cfg.center_min_px * cfg.scale
    hi = cfg.center_max_px * cfg.scale
    position = rng.uniform(lo, hi, 2)
    velocity = rng.uniform(-cfg.v_max, cfg.v_max, 2)
    return BallState(position=position, velocity=velocity)


def step_physical(state: BallState, cfg: SimConfig):
    """Advance one frame; returns (new state, (2,) per-axis bounce flags).

    Position and velocity step as (x, y) vectors, as in
    :func:`balltrack.physics.verlet_step_with_bounce`.
    """
    g, dt, e = cfg.gravity, cfg.dt, cfg.restitution
    lo = cfg.center_min_px * cfg.scale
    hi = cfg.center_max_px * cfg.scale
    raw = state.position + state.velocity * dt + (0.0, g * dt * dt / 2)
    v_new = state.velocity + (0.0, g * dt)
    low = raw < lo
    bounced = low | (raw > hi)
    if not bounced.any():  # most steps: no wall reached, so mirroring would change nothing
        return BallState(position=raw, velocity=v_new), bounced
    position = np.where(bounced, 2.0 * np.where(low, lo, hi) - raw, raw)
    if not np.all((lo <= position) & (position <= hi)):
        raise SimulationError("step crossed both walls; state unrecoverable")
    velocity = np.where(bounced, -e * v_new, v_new)
    return BallState(position=position, velocity=velocity), bounced


def project_to_pixels(p_physical, cfg: SimConfig) -> np.ndarray:
    """Meters to pixel coordinates: divide by the meters-per-pixel scale."""
    return np.asarray(p_physical, dtype=float) / cfg.scale


def simulate_trajectory(cfg: SimConfig, rng: RandomStream) -> Trajectory:
    """Full ground-truth trajectory for one sequence.

    Velocities are stored in frame units (px/frame = v * dt / S) so that
    downstream consumers need no further conversion.
    """
    state = sample_initial_conditions(cfg, rng)
    positions = np.empty((cfg.frames_per_video, 2))
    velocities = np.empty((cfg.frames_per_video, 2))
    flags = np.zeros(cfg.frames_per_video, dtype=bool)
    positions[0], velocities[0] = state.position, state.velocity
    for t in range(1, cfg.frames_per_video):
        state, bounced = step_physical(state, cfg)
        positions[t], velocities[t] = state.position, state.velocity
        flags[t] = bounced.any()
    return Trajectory(positions_px=project_to_pixels(positions, cfg),
                      velocities_fu=velocities * (cfg.dt / cfg.scale), bounce_flags=flags)


def window_index(n_frames: int) -> np.ndarray:
    """(T-2, 3) frame indices of the 3-frame windows; window k is centred
    on frame k + 1."""
    return np.arange(n_frames - 2)[:, None] + np.arange(3)


def trajectory_windows(traj: Trajectory):
    """(T-2, 3, 2) positions, (T-2, 3, 2) velocities and (T-2, 3) bounce
    flags of the trajectory's windows (see :func:`window_index`)."""
    index = window_index(len(traj))
    return traj.positions_px[index], traj.velocities_fu[index], traj.bounce_flags[index]

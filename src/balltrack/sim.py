"""Ground-truth simulation of a ball under constant gravity with wall bounces.

The simulator works in physical units (meters, seconds) and projects to
pixel coordinates at the end.  Coordinates follow the image convention:
origin top-left, x right, y down, so gravity is positive.

Boundary convention: the ball center is confined to ``[r, W-1-r]`` pixels on
each axis (the last valid pixel index is ``W-1``); an edge touch reflects.
Reflections mirror the position overshoot about the wall and rescale the
post-step velocity component by ``-e``.  Collisions are resolved per step,
not at the exact sub-step impact time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    bounce_flags: np.ndarray = field(default=None)

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


def _reflect(raw: float, v_new: float, lo: float, hi: float, e: float):
    """Mirror an overshoot about the crossed wall; velocity scaled by -e."""
    if raw < lo:
        out, v, bounced = 2.0 * lo - raw, -e * v_new, True
    elif raw > hi:
        out, v, bounced = 2.0 * hi - raw, -e * v_new, True
    else:
        return raw, v_new, False
    if not lo <= out <= hi:
        raise SimulationError("step crossed both walls; state unrecoverable")
    return out, v, bounced


def step_physical(state: BallState, cfg: SimConfig):
    """Advance one frame; returns (new state, (bounced_x, bounced_y))."""
    g, dt, e = cfg.gravity, cfg.dt, cfg.restitution
    x, y = state.position
    vx, vy = state.velocity

    x_raw = x + vx * dt
    y_raw = y + vy * dt + 0.5 * g * dt * dt
    vy_new = vy + g * dt

    lo = cfg.center_min_px * cfg.scale
    hi = cfg.center_max_px * cfg.scale
    x_out, vx_out, bx = _reflect(x_raw, vx, lo, hi, e)
    y_out, vy_out, by = _reflect(y_raw, vy_new, lo, hi, e)

    new = BallState(
        position=np.array([x_out, y_out]), velocity=np.array([vx_out, vy_out])
    )
    return new, (bx, by)


def project_to_pixels(p_physical, cfg: SimConfig) -> np.ndarray:
    """Meters to pixel coordinates: divide by the meters-per-pixel scale."""
    return np.asarray(p_physical, dtype=float) / cfg.scale


def simulate_trajectory(cfg: SimConfig, rng: RandomStream) -> Trajectory:
    """Full ground-truth trajectory for one sequence.

    Velocities are stored in frame units (px/frame = v * dt / S) so that
    downstream consumers need no further conversion.
    """
    state = sample_initial_conditions(cfg, rng)
    to_fu = cfg.dt / cfg.scale

    positions = np.empty((cfg.frames_per_video, 2))
    velocities = np.empty((cfg.frames_per_video, 2))
    flags = np.zeros(cfg.frames_per_video, dtype=bool)

    positions[0] = project_to_pixels(state.position, cfg)
    velocities[0] = state.velocity * to_fu
    for t in range(1, cfg.frames_per_video):
        state, (bx, by) = step_physical(state, cfg)
        positions[t] = project_to_pixels(state.position, cfg)
        velocities[t] = state.velocity * to_fu
        flags[t] = bx or by
    return Trajectory(positions_px=positions, velocities_fu=velocities, bounce_flags=flags)


def trajectory_windows(traj: Trajectory):
    """Yield (t, positions (3,2), velocities (3,2), flags (3,)) for each
    3-frame window centered at frame t."""
    for t in range(1, len(traj) - 1):
        sl = slice(t - 1, t + 2)
        yield t, traj.positions_px[sl], traj.velocities_fu[sl], traj.bounce_flags[sl]

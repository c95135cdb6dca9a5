"""Ground-truth simulation of a ball under constant gravity with wall bounces.

The simulator works in physical units (meters, seconds) and converts a
whole trajectory to pixels and frame units once, after its last step.
Coordinates follow the image convention: origin top-left, x right, y down,
so gravity is positive.  The state is an (x, y) position and a velocity.
The axes meet only in the bounce flag, so a step moves each axis on its own,
on Python floats: :func:`simulate_trajectory` holds the state as four floats
and builds its arrays once, after the last step, and :func:`step_physical`
takes and returns ``(2,)`` arrays, in the order of
:func:`balltrack.physics.verlet_step_with_bounce`.  Both run the one float
step, whose IEEE operations are those of the array form, so either gives
the bits of the other.

Boundary convention: the ball center is confined to ``[r, W-1-r]`` pixels on
each axis (the last valid pixel index is ``W-1``); an edge touch reflects.
Reflections mirror the position overshoot about the wall and rescale the
post-step velocity component by ``-e``; an overshoot that the mirror carries
past the far wall is mirrored again, with ``-e`` once per reflection, until
the center is inside.  Collisions are resolved per step, not at the exact
sub-step impact time.  Ground truth leaves the module as a
:class:`Trajectory`, the type the physics refinement returns too; it indexes
and stacks itself, and its 3-frame windows are ``traj[..., window_index(T)]``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .rng import RandomStream

__all__ = [
    "SimConfig",
    "Trajectory",
    "SimulationError",
    "sample_initial_conditions",
    "step_physical",
    "project_to_pixels",
    "simulate_trajectory",
    "window_index",
    "trajectory_windows",
]

_MAX_NORMAL = math.sqrt(106 * math.log(2))  # RandomStream.normal's largest |z|, Box-Muller at 1 - u = 2^-53
_MAX_MIRRORS = 2**20  # domain widths an overshoot may span: a step mirrors it once per width


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
        # sizes and counts: 64.0 would fail later as an array size, and a bool is no count
        ints = {f.name: getattr(self, f.name) for f in fields(self) if f.type == "int"}
        if bad := [f"{name}={value!r}" for name, value in ints.items()
                   if isinstance(value, bool) or not isinstance(value, numbers.Integral)]:
            raise SimulationError(f"parameters must be integers: {', '.join(bad)}")
        for name, value in ints.items():  # numpy integers become ints, as the manifest and the rng take them
            object.__setattr__(self, name, int(value))
        # nor is a bool a measure: True would pass as 1.0, and a manifest would hold it as true
        if bad := [f"{name}={value!r}" for name, value in vars(self).items()
                   if isinstance(value, (bool, np.bool_))]:
            raise SimulationError(f"parameters must not be bools: {', '.join(bad)}")
        # real-valued fields become floats: json, and so the manifest, takes no numpy float32
        for name in (f.name for f in fields(self) if f.type == "float"):
            if isinstance(value := getattr(self, name), numbers.Real):
                object.__setattr__(self, name, float(value))
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
        if float(self.noise_sigma) * _MAX_NORMAL >= float(np.finfo(np.float32).max):
            raise SimulationError(f"noise_sigma={self.noise_sigma} can overflow the float32 noise image")
        if math.copysign(1.0, self.noise_sigma) < 0:  # -0.0: the same dataset as 0.0, stored as it
            object.__setattr__(self, "noise_sigma", 0.0)
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise SimulationError("n_train, n_val and n_test must each be at least 1")
        if not 0 <= self.seed < 2**64:  # the stream keys are 64 bits: any other seed aliases one of these
            raise SimulationError(f"seed={self.seed} must lie in [0, 2**64)")
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
class Trajectory:
    """Ground truth or a physics estimate in image units: a sequence, a
    3-frame window or a stack of either; the vectors may be duals.

    positions_px: (..., T, 2) ball center [px]
    velocities_fu: (..., T, 2) velocity [px/frame]
    bounce_flags: (..., T) True when a reflection occurred during the step
        ending at that frame; frame 0 is always False.
    """

    positions_px: np.ndarray
    velocities_fu: np.ndarray
    bounce_flags: np.ndarray

    def __post_init__(self):
        p, v, b = np.shape(self.positions_px), np.shape(self.velocities_fu), np.shape(self.bounce_flags)
        if not p == v == (*b, 2):
            raise SimulationError(f"trajectory positions {p} and velocities {v} do not fit bounce flags {b}")

    def __len__(self):
        return len(self.positions_px)

    def __getitem__(self, index) -> "Trajectory":
        """Index the axes of ``bounce_flags``; vectors keep their ``(x, y)`` axis; basic indices: views."""
        key = (*(index if isinstance(index, tuple) else (index,)), slice(None))
        return Trajectory(self.positions_px[key], self.velocities_fu[key], self.bounce_flags[index])

    @classmethod
    def stack(cls, trajectories) -> "Trajectory":
        """Trajectories of one shape stacked along a new leading axis; dual vectors too."""
        *vectors, flags = zip(*(vars(t).values() for t in trajectories))
        return cls(*(ad.stack(v, axis=0) for v in vectors), np.stack(flags))


def sample_initial_conditions(cfg: SimConfig, rng: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """Position [m] and velocity [m/s]: a uniform start anywhere in the valid
    region, velocity in ±v_max, drawn in that order."""
    lo = cfg.center_min_px * cfg.scale
    hi = cfg.center_max_px * cfg.scale
    position = rng.uniform(lo, hi, 2)
    return position, rng.uniform(-cfg.v_max, cfg.v_max, 2)


def _step_axis(p: float, v: float, drift: float, kick: float, dt: float, lo: float, hi: float, e: float):
    """One axis of one step on floats: advance by ``p + v dt + drift`` and
    ``v + kick``, then, while the position lies outside ``[lo, hi]``, mirror it
    about the wall it crossed and scale the velocity by ``-e``.  Returns the
    position, the velocity and whether the axis bounced.  An infinite
    overshoot is returned unmirrored, since mirroring it would never end; the
    caller rejects it; a finite one past ``_MAX_MIRRORS`` domain widths raises."""
    q, w = p + v * dt + drift, v + kick
    low = q < lo
    if not (low or q > hi):  # most steps: no wall reached (a NaN reaches none)
        return q, w, False
    if math.isfinite(q) and (lo - q if low else q - hi) > _MAX_MIRRORS * (hi - lo):
        raise SimulationError(f"step from {p} m at {v} m/s overshoots a wall by over {_MAX_MIRRORS} widths")
    while math.isfinite(q):
        q, w = 2.0 * (lo if low else hi) - q, -e * w
        low = q < lo
        if not (low or q > hi):
            break
    return q, w, True


def _check_finite(x: float, y: float, bounced: bool) -> None:
    """Reject a step that bounced into a non-finite position, such as the
    infinite overshoot :func:`_step_axis` leaves unmirrored."""
    if bounced and not (math.isfinite(x) and math.isfinite(y)):
        raise SimulationError(f"step reached a non-finite position {(x, y)}")


def step_physical(position: np.ndarray, velocity: np.ndarray, cfg: SimConfig):
    """Advance one frame; returns the new position and velocity and the
    (2,) per-axis bounce flags.

    Runs :func:`_step_axis` once per axis, as :func:`simulate_trajectory` does.  The x
    axis gets the ``+ 0.0`` drift and kick of the array form
    ``position + velocity * dt + (0.0, g dt^2 / 2)``, ``velocity + (0.0, g dt)``,
    which turn a -0.0 into 0.0, so the results have that form's bits."""
    g, dt, e = cfg.gravity, cfg.dt, cfg.restitution
    lo, hi = cfg.center_min_px * cfg.scale, cfg.center_max_px * cfg.scale
    (x, y), (vx, vy) = map(float, position), map(float, velocity)
    x, vx, bx = _step_axis(x, vx, 0.0, 0.0, dt, lo, hi, e)
    y, vy, by = _step_axis(y, vy, g * dt * dt / 2, g * dt, dt, lo, hi, e)
    _check_finite(x, y, bx or by)
    return np.array([x, y]), np.array([vx, vy]), np.array([bx, by])


def project_to_pixels(p_physical, cfg: SimConfig) -> np.ndarray:
    """Meters to pixel coordinates: divide by the meters-per-pixel scale."""
    return np.asarray(p_physical, dtype=float) / cfg.scale


def simulate_trajectory(cfg: SimConfig, rng: RandomStream) -> Trajectory:
    """Full ground-truth trajectory for one sequence.

    The state is four Python floats, and each frame runs the float step
    :func:`_step_axis` once per axis; the ``(T, 2)`` arrays are built once, at
    the end.  Velocities are stored in frame units (px/frame = v * dt / S) so
    that downstream consumers need no further conversion.
    """
    g, dt, e = cfg.gravity, cfg.dt, cfg.restitution
    lo, hi = cfg.center_min_px * cfg.scale, cfg.center_max_px * cfg.scale
    drift, kick = g * dt * dt / 2, g * dt
    position, velocity = sample_initial_conditions(cfg, rng)
    (x, y), (vx, vy) = position.tolist(), velocity.tolist()
    states, flags = [(x, y, vx, vy)], [False]
    for _ in range(1, cfg.frames_per_video):
        x, vx, bx = _step_axis(x, vx, 0.0, 0.0, dt, lo, hi, e)
        y, vy, by = _step_axis(y, vy, drift, kick, dt, lo, hi, e)
        _check_finite(x, y, bx or by)
        states.append((x, y, vx, vy))
        flags.append(bx or by)
    state = np.array(states)
    return Trajectory(positions_px=project_to_pixels(state[:, :2], cfg),
                      velocities_fu=state[:, 2:] * (dt / cfg.scale), bounce_flags=np.array(flags))


def window_index(n_frames: int) -> np.ndarray:
    """(T-2, 3) frame indices of the 3-frame windows; window k is centred
    on frame k + 1."""
    return np.arange(n_frames - 2)[:, None] + np.arange(3)


def trajectory_windows(traj: Trajectory) -> Trajectory:
    """The ``(..., T-2, 3)`` windows of the trajectory's last frame axis (see
    :func:`window_index`), ``(..., T-2, 3, 2)`` vectors."""
    return traj[..., window_index(np.shape(traj.bounce_flags)[-1])]

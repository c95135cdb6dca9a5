"""Built-in numerical self-checks: constants, exactness, derivatives.

Each check runs on the default :class:`SimConfig` and returns (name,
passed, detail).  ``run_all`` is what the CLI ``selfcheck`` command
executes; it is also intended as a quick smoke test after installing on a
new platform.  The checks that run the physics kernel read
``balltrack.selfcheck.physics_refine_window`` when they run; assign another
kernel there to certify it instead.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import autodiff as ad
from .heatmaps import (
    bicubic_expectation,
    bilinear_expectation,
    biquadratic_expectation,
    coarse_to_fine_expectation,
    gaussian_target,
)
from .losses import physics_consistency_loss, physics_supervised_loss
from .physics import init_velocity, physics_refine_window, to_frame_units, verlet_step_with_bounce
from .rng import RandomStream
from .sim import SimConfig, Trajectory, simulate_trajectory, trajectory_windows

GRAD_TOL = 1e-4
FD_STEP = 1e-4


def _window_fn(params):
    """(..., 6) landmarks -> (..., 12) refined positions then velocities."""
    def f(x):
        win = physics_refine_window(x.reshape(*x.shape[:-1], 3, 2), params)
        return ad.stack([win.positions_px, win.velocities_fu], axis=-3).reshape(*x.shape[:-1], 12)

    return f


def branch_free(windows, params):
    """(n,) mask of the (n, 3, 2) landmark windows at least 1 px from branch borders.

    A window is kept only if the kernel's own two Verlet steps flag no bounce
    and stay, with the landmarks, 1 px inside the valid region, so difference
    stencils never straddle a bounce or clamp.
    """
    p1, v1, b1 = verlet_step_with_bounce(windows[:, 0], init_velocity(windows[:, 0], windows[:, 1]), params)
    p2, _, b2 = verlet_step_with_bounce(p1, v1, params)
    states = np.concatenate([windows, p1[:, None], p2[:, None]], axis=1)
    margin = np.minimum(states - params.center_min, params.center_max - states).min(axis=(1, 2))
    return (margin >= 1.0) & ~(b1 | b2).any(axis=-1)


def interior_probe_windows(params, n, rng: RandomStream):
    """(n, 6) random landmark windows that :func:`branch_free` keeps.

    Jittered ballistic triples start 25 px inside the valid region.  Each
    round draws only the missing count, in the order a one-at-a-time loop
    would: per candidate, start (2), velocity (2), then jitter (3 x 2).
    """
    t = np.arange(3.0)[:, None]
    fall = np.array([0.0, 0.5 * params.g_frame]) * t * t
    low = np.array([params.center_min + 25] * 2 + [-6] * 2 + [-0.45] * 6)
    high = np.array([params.center_max - 25] * 2 + [6] * 2 + [0.45] * 6)

    probes = np.empty((0, 3, 2))
    while len(probes) < n:
        k = n - len(probes)
        u = rng.uniform(np.tile(low, k), np.tile(high, k), 10 * k).reshape(k, 10)
        x = u[:, None, :2] + u[:, None, 2:4] * t + fall + u[:, 4:].reshape(k, 3, 2)
        probes = np.concatenate([probes, x[branch_free(x, params)]])
    return probes.reshape(-1, 6)


def _l1_kink_margin(x, params, truth: Trajectory):
    """Per window, the smallest |argument| among the L1 terms of both losses.

    The losses are differentiable except where an L1 argument crosses zero.
    Consistency terms of frames that the branch taken passes through
    unchanged are identically zero (both derivative methods agree there by
    symmetry), so they are excluded: frame 0 always, and frame 2 on the
    parabola branch, which ends at the last landmark.  ``x`` is ``(P, 6)``,
    the ground truth ``(P, 1, 3)`` frames; the result is ``(P,)``.
    """
    lms = x.reshape(truth.positions_px.shape)
    win = physics_refine_window(lms, params)
    bounced = win.bounce_flags[..., 1] | win.bounce_flags[..., 2]
    moved = np.stack([np.zeros_like(bounced), np.ones_like(bounced), bounced], axis=-1)
    gaps = [np.where(moved[..., None], np.abs(win.positions_px - lms), np.inf),
            np.abs(win.positions_px - truth.positions_px), np.abs(win.velocities_fu - truth.velocities_fu)]
    return np.min(np.concatenate(gaps, axis=-2), axis=(-3, -2, -1))


def _jacobian_errors(f, x, cols=None):
    """Forward mode against central differences, one error per point of ``x``."""
    return ad.max_relative_error(ad.jacobian_fd(f, x, h=FD_STEP, cols=cols),
                                 ad.jacobian_forward(f, x, cols=cols))


def _gradient_result(name: str, errors):
    """PASS needs at least one evaluated probe and every error below GRAD_TOL."""
    errors = np.asarray(errors, dtype=float)
    worst = float(np.max(errors, initial=0.0))
    return (f"gradients: {name}", errors.size > 0 and worst < GRAD_TOL,
            f"{errors.size} probes, max rel err {worst:.3e}")


def check_frame_units():
    params = to_frame_units(SimConfig())
    expected = {"g_frame": 0.7848, "dy": 0.3924, "dv": 0.7848, "v_max": 22.2}
    got = (params.g_frame, 0.5 * params.g_frame, params.g_frame, params.v_max_frame)
    worst = max(abs(g - e) for g, e in zip(got, expected.values()))
    return (f"frame units ({', '.join(f'{k}={v:g}' for k, v in expected.items())})",
            worst <= 1e-12, f"max abs deviation {worst:.3e}")


def check_parabola_fixed_point():
    """Exact ballistic windows of 20 simulated sequences must be fixed points of the refinement."""
    cfg = SimConfig()
    params = to_frame_units(cfg)
    windows = trajectory_windows(Trajectory.stack(
        simulate_trajectory(cfg, RandomStream.from_seed(cfg.seed, "selfcheck", i)) for i in range(20)))
    pos, flags = windows.positions_px, windows.bounce_flags
    # bounce-free windows; integrator overshoot could graze the floor
    pos = pos[~flags[..., 1:].any(axis=-1) & (pos[..., 1].max(axis=-1) <= params.center_max - params.g_frame)]
    refined = physics_refine_window(pos, params).positions_px
    worst = float(np.max(np.abs(refined - pos), initial=0.0))
    passed = len(pos) > 0 and worst < 1e-9
    return ("parabola fixed point", passed, f"{len(pos)} windows, worst |err| {worst:.3e}")


def check_gradients(trials: int = 100):
    """Forward-mode vs central-difference jacobians on interior probes.

    The physics window and both losses check all their probes in one
    batched Jacobian pair each; the operators take one pair per probe map.
    """
    cfg = SimConfig()
    params = to_frame_units(cfg)
    rng = RandomStream.from_seed(cfg.seed, "selfcheck-grad")
    results = []

    x = interior_probe_windows(params, trials, rng.spawn("window"))
    f = _window_fn(params)
    results.append(_gradient_result("physics window", _jacobian_errors(f, x)))

    op_rng = rng.spawn("operators")
    for name, op in (("bilinear", bilinear_expectation),
                     ("coarse-to-fine", coarse_to_fine_expectation),
                     ("biquadratic", biquadratic_expectation),
                     ("bicubic", bicubic_expectation)):
        def g(flat, op=op):
            return op(flat.reshape(*flat.shape[:-1], 24, 24))

        # per probe a center in [10, 14)^2 and 32 pixel draws: one block holds
        # the draws of uniform, uniform, random(32) calls, round after round
        draws = op_rng.random(34 * trials).reshape(trials, 34)
        errors = []
        for center, pixels in zip(10 + 4 * draws[:, :2], draws[:, 2:]):
            hm = gaussian_target(center, 24, 2.0).ravel()
            # keep probed pixels clear of the rectifier kink (value >> fd step)
            candidates = np.flatnonzero(hm > 1e-3)
            cols = candidates[(pixels * len(candidates)).astype(int)]
            errors.append(_jacobian_errors(g, hm, cols))
        results.append(_gradient_result(f"{name} expectation", errors))

    x = interior_probe_windows(params, trials, rng.spawn("losses"))
    positions = x.reshape(-1, 1, 3, 2) + 0.5
    truth = Trajectory(positions, np.diff(positions, axis=-2, prepend=positions[..., :1, :]) + 0.2,
                       np.broadcast_to([0.0, 0.0, 1.0], positions.shape[:-1]))
    # |.| arguments too close to zero for a clean stencil drop their probe
    keep = _l1_kink_margin(x, params, truth) >= 10 * FD_STEP
    x, truth = x[keep], truth[keep]

    def fc(z):
        landmarks = z.reshape(*z.shape[:-1], 3, 2)
        return ad.stack([physics_consistency_loss(physics_refine_window(landmarks, params), landmarks)])

    def fs(z):
        win = physics_refine_window(z.reshape(*z.shape[:-1], 3, 2), params)
        return ad.stack([physics_supervised_loss(win, truth)])

    for name, fn in (("physics consistency loss", fc), ("physics supervised loss", fs)):
        results.append(_gradient_result(name, _jacobian_errors(fn, x)))
    return results


def check_unit_scaling():
    """Doubling meters/px while halving pixel inputs halves the outputs."""
    cfg = SimConfig()
    params = to_frame_units(cfg)
    params2 = to_frame_units(replace(cfg, scale=cfg.scale * 2))

    rng = RandomStream.from_seed(cfg.seed, "selfcheck-units")
    lms = interior_probe_windows(params, 50, rng).reshape(-1, 3, 2)
    p1 = physics_refine_window(lms, params).positions_px
    p2 = physics_refine_window(lms / 2, params2).positions_px
    worst = float(np.max(np.abs(p2 - p1 / 2)))
    passed = worst < 1e-9
    return ("unit scaling consistency", passed, f"worst |err| {worst:.3e}")


def run_all(trials: int = 100):
    """Run every check; returns a list of (name, passed, detail)."""
    return [check_frame_units(),
            check_parabola_fixed_point(),
            *check_gradients(trials),
            check_unit_scaling()]

"""Built-in numerical self-checks: constants, exactness, derivatives.

Each check runs on the default :class:`SimConfig` and returns (name,
passed, detail).  ``run_all`` is what the CLI ``selfcheck`` command
executes; it is also intended as a quick smoke test after installing on a
new platform.  The checks that run the physics kernel take it as
``physics_window``, so a test can pass a wrong one and see them fail.
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
from .sim import SimConfig, simulate_trajectory, trajectory_windows

GRAD_TOL = 1e-4
FD_STEP = 1e-4


def _window_fn(params, physics_window=physics_refine_window):
    """(..., 6) landmarks -> (..., 12) refined positions then velocities."""
    def f(x):
        win = physics_window(x.reshape(*x.shape[:-1], 3, 2), params)
        return ad.stack([win.positions, win.velocities], axis=-3).reshape(*x.shape[:-1], 12)

    return f


def interior_probe_windows(params, n, rng: RandomStream):
    """(n, 6) random landmark windows at least 1 px from branch borders.

    Jittered ballistic triples are kept only if the kernel's own two Verlet
    steps flag no bounce and stay, with the landmarks, 1 px inside the valid
    region, so difference stencils never straddle a bounce or clamp.  Each
    round draws only the missing count, as a one-at-a-time loop would.
    """
    t = np.arange(3.0)[:, None]
    fall = np.array([0.0, 0.5 * params.g_frame]) * t * t

    def candidate():
        p0 = rng.uniform(params.center_min + 25, params.center_max - 25, 2)
        v = rng.uniform(-6, 6, 2)
        return p0 + v * t + fall + rng.uniform(-0.45, 0.45, 6).reshape(3, 2)

    probes = np.empty((0, 3, 2))
    while len(probes) < n:
        x = np.stack([candidate() for _ in range(n - len(probes))])
        p1, v1, b1 = verlet_step_with_bounce(x[:, 0], init_velocity(x[:, 0], x[:, 1]), params)
        p2, _, b2 = verlet_step_with_bounce(p1, v1, params)
        states = np.concatenate([x, p1[:, None], p2[:, None]], axis=1)
        margin = np.minimum(states - params.center_min, params.center_max - states).min(axis=(1, 2))
        probes = np.concatenate([probes, x[(margin >= 1.0) & ~(b1 | b2).any(axis=-1)]])
    return probes.reshape(-1, 6)


def _l1_kink_margin(x, params, gt_pos, gt_vel, physics_window):
    """Per window, the smallest |argument| among the L1 terms of both losses.

    The losses are differentiable except where an L1 argument crosses zero.
    Consistency terms of frames that the branch taken passes through
    unchanged are identically zero (both derivative methods agree there by
    symmetry), so they are excluded: frame 0 always, and frame 2 on the
    parabola branch, which ends at the last landmark.  ``x`` is ``(P, 6)``,
    the ground truth ``(P, 1, 3, 2)``; the result is ``(P,)``.
    """
    lms = x.reshape(gt_pos.shape)
    win = physics_window(lms, params)
    bounced = win.bounced[..., 1] | win.bounced[..., 2]
    moved = np.stack([np.zeros_like(bounced), np.ones_like(bounced), bounced], axis=-1)
    gaps = np.concatenate([np.where(moved[..., None], np.abs(win.positions - lms), np.inf),
                           np.abs(win.positions - gt_pos), np.abs(win.velocities - gt_vel)], axis=-2)
    return np.min(gaps, axis=(-3, -2, -1))


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
    expected = {
        "g_frame": 0.7848,
        "dy_per_frame": 0.3924,
        "dv_per_frame": 0.7848,
        "v_max_frame": 22.2,
    }
    got = {
        "g_frame": params.g_frame,
        "dy_per_frame": 0.5 * params.g_frame,
        "dv_per_frame": params.g_frame,
        "v_max_frame": params.v_max_frame,
    }
    worst = max(abs(got[k] - v) for k, v in expected.items())
    passed = worst <= 1e-12
    return ("frame units (g_frame=0.7848, dy=0.3924, dv=0.7848, v_max=22.2)",
            passed, f"max abs deviation {worst:.3e}")


def check_parabola_fixed_point(physics_window=physics_refine_window):
    """Exact ballistic windows of 20 simulated sequences must be fixed points of the refinement."""
    cfg = SimConfig()
    params = to_frame_units(cfg)
    trajectories = (simulate_trajectory(cfg, RandomStream.from_seed(cfg.seed, "selfcheck", i))
                    for i in range(20))
    pos, _, flags = (np.concatenate(a) for a in zip(*map(trajectory_windows, trajectories)))
    # bounce-free windows; integrator overshoot could graze the floor
    pos = pos[~(flags[:, 1] | flags[:, 2]) & (pos[..., 1].max(axis=-1) <= params.center_max - params.g_frame)]
    refined = physics_window(pos, params).positions
    worst = float(np.max(np.abs(refined - pos), initial=0.0))
    passed = len(pos) > 0 and worst < 1e-9
    return ("parabola fixed point", passed, f"{len(pos)} windows, worst |err| {worst:.3e}")


def check_gradients(trials: int = 100, physics_window=physics_refine_window):
    """Forward-mode vs central-difference jacobians on interior probes.

    The physics window and both losses check all their probes in one
    batched Jacobian pair each; the operators take one pair per probe map.
    """
    cfg = SimConfig()
    params = to_frame_units(cfg)
    rng = RandomStream.from_seed(cfg.seed, "selfcheck-grad")
    results = []

    x = interior_probe_windows(params, trials, rng.spawn("window"))
    f = _window_fn(params, physics_window)
    results.append(_gradient_result("physics window", _jacobian_errors(f, x)))

    op_rng = rng.spawn("operators")
    for name, op in (("bilinear", bilinear_expectation),
                     ("coarse-to-fine", coarse_to_fine_expectation),
                     ("biquadratic", biquadratic_expectation),
                     ("bicubic", bicubic_expectation)):
        def g(flat, op=op):
            return op(flat.reshape(*flat.shape[:-1], 24, 24))

        errors = []
        for _ in range(trials):
            hm = gaussian_target((op_rng.uniform(10, 14), op_rng.uniform(10, 14)), 24, 2.0).ravel()
            # keep probed pixels clear of the rectifier kink (value >> fd step)
            candidates = np.flatnonzero(hm > 1e-3)
            cols = candidates[(op_rng.random(32) * len(candidates)).astype(int)]
            errors.append(_jacobian_errors(g, hm, cols))
        results.append(_gradient_result(f"{name} expectation", errors))

    x = interior_probe_windows(params, trials, rng.spawn("losses"))
    gt_pos = x.reshape(-1, 1, 3, 2) + 0.5
    gt_vel = np.diff(gt_pos, axis=-2, prepend=gt_pos[..., :1, :]) + 0.2
    gt_b = np.array([0.0, 0.0, 1.0])
    # |.| arguments too close to zero for a clean stencil drop their probe
    keep = _l1_kink_margin(x, params, gt_pos, gt_vel, physics_window) >= 10 * FD_STEP
    x, gt_pos, gt_vel = x[keep], gt_pos[keep], gt_vel[keep]

    def fc(z):
        landmarks = z.reshape(*z.shape[:-1], 3, 2)
        return ad.stack([physics_consistency_loss(physics_window(landmarks, params), landmarks)])

    def fs(z):
        win = physics_window(z.reshape(*z.shape[:-1], 3, 2), params)
        return ad.stack([physics_supervised_loss(win, gt_pos, gt_vel, gt_b)])

    for name, fn in (("physics consistency loss", fc), ("physics supervised loss", fs)):
        results.append(_gradient_result(name, _jacobian_errors(fn, x)))
    return results


def check_unit_scaling(physics_window=physics_refine_window):
    """Doubling meters/px while halving pixel inputs halves the outputs."""
    cfg = SimConfig()
    params = to_frame_units(cfg)
    params2 = to_frame_units(replace(cfg, scale=cfg.scale * 2))

    rng = RandomStream.from_seed(cfg.seed, "selfcheck-units")
    lms = interior_probe_windows(params, 50, rng).reshape(-1, 3, 2)
    p1 = physics_window(lms, params).positions
    p2 = physics_window(lms / 2, params2).positions
    worst = float(np.max(np.abs(p2 - p1 / 2)))
    passed = worst < 1e-9
    return ("unit scaling consistency", passed, f"worst |err| {worst:.3e}")


def run_all(trials: int = 100, physics_window=physics_refine_window):
    """Run every check; returns a list of (name, passed, detail)."""
    return [check_frame_units(),
            check_parabola_fixed_point(physics_window),
            *check_gradients(trials, physics_window),
            check_unit_scaling(physics_window)]

"""Built-in numerical self-checks: constants, exactness, derivatives.

Each check returns (name, passed, detail).  ``run_all`` is what the CLI
``selfcheck`` command executes; it is also intended as a quick smoke test
after installing on a new platform.
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
from .physics import physics_refine_window, to_frame_units
from .rng import RandomStream
from .sim import SimConfig, simulate_trajectory, trajectory_windows

GRAD_TOL = 1e-4
FD_STEP = 1e-4


def _window_fn(params, physics_window=physics_refine_window):
    """(..., 6) landmarks -> (..., 12) refined positions then velocities."""
    def f(x):
        win = physics_window(x.reshape(*x.shape[:-1], 3, 2), params)
        return ad.stack([out[..., t, c] for out in (win.positions, win.velocities)
                         for t in range(3) for c in range(2)])

    return f


def _branch_margin(x, params) -> float:
    """Distance of a landmark window from the nearest branch boundary.

    Replays the forward integration and reports how far every landmark and
    raw integrated position stays inside the valid region; positive margins
    mean neither a bounce nor a clamp can trigger, so the window sits
    strictly inside one differentiable branch.
    """
    g = params.g_frame
    pts = np.asarray(x, dtype=float).reshape(3, 2)
    v0 = pts[1] - pts[0]
    raw1 = pts[0] + v0 + np.array([0.0, 0.5 * g])
    v1 = v0 + np.array([0.0, g])
    raw2 = raw1 + v1 + np.array([0.0, 0.5 * g])
    states = np.vstack([pts, raw1, raw2])
    lo = np.array([params.x_min, params.y_min])
    hi = np.array([params.x_max, params.y_max])
    return float(min(np.min(states - lo), np.min(hi - states)))


def interior_probe_windows(params, n, rng: RandomStream, margin: float = 1.0):
    """Random landmark windows at least ``margin`` px from branch borders.

    Jittered ballistic triples are drawn and kept only if the replayed
    integration (see :func:`_branch_margin`) stays ``margin`` px away from
    every wall, so finite-difference stencils never straddle the bounce or
    clamp branches.
    """
    probes = []
    g = params.g_frame
    t = np.arange(3.0)
    while len(probes) < n:
        x0 = rng.uniform(params.x_min + 25, params.x_max - 25)
        y0 = rng.uniform(params.y_min + 25, params.y_max - 25)
        vx = rng.uniform(-6, 6)
        vy = rng.uniform(-6, 6)
        jitter = rng.uniform(-0.45, 0.45, 6)
        x = np.stack([x0 + vx * t, y0 + vy * t + 0.5 * g * t * t], axis=-1).ravel() + jitter
        if _branch_margin(x, params) >= margin:
            probes.append(x)
    return probes


def _l1_kink_margin(x, params, gt_pos, gt_vel, physics_window) -> float:
    """Smallest |argument| among the L1 terms of both physics losses.

    The losses are differentiable except where an L1 argument crosses zero.
    Consistency terms of frames that the branch taken passes through
    unchanged are identically zero (both derivative methods agree there by
    symmetry), so they are excluded: frame 0 always, and frame 2 on the
    parabola branch, which ends at the last landmark.
    """
    lms = np.asarray(x, dtype=float).reshape(3, 2)
    win = physics_window(lms, params)
    moved = slice(1, 3) if win.bounced[1] or win.bounced[2] else slice(1, 2)
    gaps = [np.abs(win.positions[moved] - lms[moved]), np.abs(win.positions - gt_pos),
            np.abs(win.velocities - gt_vel)]
    return float(min(np.min(g) for g in gaps))


def _gradient_result(name: str, errors: list[float]):
    """PASS needs at least one evaluated probe and every error below GRAD_TOL."""
    worst = max(errors, default=0.0)
    return (f"gradients: {name}", len(errors) > 0 and worst < GRAD_TOL,
            f"{len(errors)} probes, max rel err {worst:.3e}")


def check_frame_units(cfg: SimConfig | None = None):
    cfg = cfg or SimConfig()
    params = to_frame_units(cfg)
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


def check_parabola_fixed_point(cfg: SimConfig | None = None, n_sequences: int = 20,
                               physics_window=physics_refine_window):
    """Exact ballistic windows must be fixed points of the refinement."""
    cfg = cfg or SimConfig()
    params = to_frame_units(cfg)
    windows = []
    for i in range(n_sequences):
        traj = simulate_trajectory(cfg, RandomStream.from_seed(cfg.seed, "selfcheck", i))
        for _, pos, _, flags in trajectory_windows(traj):
            if flags[1] or flags[2]:
                continue
            if np.max(pos[:, 1]) > params.y_max - params.g_frame:
                continue  # integrator overshoot could graze the floor
            windows.append(pos)
    pos = np.array(windows).reshape(-1, 3, 2)
    refined = physics_window(pos, params).positions
    worst = float(np.max(np.abs(refined - pos), initial=0.0))
    passed = len(pos) > 0 and worst < 1e-9
    return ("parabola fixed point", passed, f"{len(pos)} windows, worst |err| {worst:.3e}")


def check_gradients(cfg: SimConfig | None = None, trials: int = 100,
                    physics_window=physics_refine_window):
    """Forward-mode vs central-difference jacobians on interior probes."""
    cfg = cfg or SimConfig()
    params = to_frame_units(cfg)
    rng = RandomStream.from_seed(cfg.seed, "selfcheck-grad")
    results = []

    f = _window_fn(params, physics_window)
    errors = [ad.max_relative_error(ad.jacobian_fd(f, x, h=FD_STEP), ad.jacobian_forward(f, x))
              for x in interior_probe_windows(params, trials, rng.spawn("window"))]
    results.append(_gradient_result("physics window", errors))

    operators = {
        "bilinear": (bilinear_expectation, 24),
        "coarse-to-fine": (coarse_to_fine_expectation, 24),
        "biquadratic": (biquadratic_expectation, 24),
        "bicubic": (bicubic_expectation, 24),
    }
    op_rng = rng.spawn("operators")
    n_cols = 32
    for name, (op, size_hm) in operators.items():
        errors = []
        for _ in range(trials):
            cx = op_rng.uniform(10, size_hm - 10)
            cy = op_rng.uniform(10, size_hm - 10)
            hm = gaussian_target((cx, cy), size_hm, 2.0)

            def g(flat, op=op, size_hm=size_hm):
                return ad.stack(op(flat.reshape(*flat.shape[:-1], size_hm, size_hm)))

            # keep probed pixels clear of the rectifier kink (value >> fd step)
            candidates = np.flatnonzero(hm.ravel() > 1e-3)
            picks = (op_rng.random(n_cols) * len(candidates)).astype(int)
            cols = candidates[picks]
            j_fwd = ad.jacobian_forward(g, hm.ravel(), cols=cols)
            j_fd = ad.jacobian_fd(g, hm.ravel(), h=FD_STEP, cols=cols)
            errors.append(ad.max_relative_error(j_fd, j_fwd))
        results.append(_gradient_result(f"{name} expectation", errors))

    loss_rng = rng.spawn("losses")
    errors_c = []
    errors_s = []
    for x in interior_probe_windows(params, trials, loss_rng):
        gt_pos = x.reshape(3, 2) + 0.5
        gt_vel = np.diff(gt_pos, axis=0, prepend=gt_pos[:1]) + 0.2
        gt_b = np.array([0.0, 0.0, 1.0])

        def fc(z):
            landmarks = z.reshape(*z.shape[:-1], 3, 2)
            return ad.stack([physics_consistency_loss(physics_window(landmarks, params), landmarks)])

        def fs(z):
            win = physics_window(z.reshape(*z.shape[:-1], 3, 2), params)
            return ad.stack([physics_supervised_loss(win, gt_pos, gt_vel, gt_b)])

        if _l1_kink_margin(x, params, gt_pos, gt_vel, physics_window) < 10 * FD_STEP:
            continue  # |.| argument too close to zero for a clean stencil
        errors_c.append(ad.max_relative_error(
            ad.jacobian_fd(fc, x, h=FD_STEP), ad.jacobian_forward(fc, x)))
        errors_s.append(ad.max_relative_error(
            ad.jacobian_fd(fs, x, h=FD_STEP), ad.jacobian_forward(fs, x)))
    results.append(_gradient_result("physics consistency loss", errors_c))
    results.append(_gradient_result("physics supervised loss", errors_s))
    return results


def check_unit_scaling(cfg: SimConfig | None = None, physics_window=physics_refine_window):
    """Doubling meters/px while halving pixel inputs halves the outputs."""
    cfg = cfg or SimConfig()
    params = to_frame_units(cfg)
    params2 = to_frame_units(replace(cfg, scale=cfg.scale * 2))

    rng = RandomStream.from_seed(cfg.seed, "selfcheck-units")
    lms = np.array(interior_probe_windows(params, 50, rng)).reshape(-1, 3, 2)
    p1 = physics_window(lms, params).positions
    p2 = physics_window(lms / 2, params2).positions
    worst = float(np.max(np.abs(p2 - p1 / 2)))
    passed = worst < 1e-9
    return ("unit scaling consistency", passed, f"worst |err| {worst:.3e}")


def run_all(cfg: SimConfig | None = None, trials: int = 100,
            physics_window=physics_refine_window):
    """Run every check; returns a list of (name, passed, detail)."""
    cfg = cfg or SimConfig()
    checks = [check_frame_units(cfg)]
    checks.append(check_parabola_fixed_point(cfg, physics_window=physics_window))
    checks.extend(check_gradients(cfg, trials=trials, physics_window=physics_window))
    checks.append(check_unit_scaling(cfg, physics_window=physics_window))
    return checks


def broken_kernel(landmarks, params):
    """Deliberately wrong physics window (doubled gravity); test hook for
    verifying that the selfcheck actually fails on a bad kernel."""
    return physics_refine_window(landmarks, replace(params, g_frame=2 * params.g_frame))

from dataclasses import asdict

import numpy as np
import pytest

from balltrack.physics import (
    FrameUnitParams,
    init_velocity,
    physics_refine_window,
    smooth_correction,
    to_frame_units,
    verlet_step_with_bounce,
)
from balltrack.rng import RandomStream
from balltrack.sim import SimConfig, simulate_trajectory, trajectory_windows


@pytest.fixture(scope="module")
def params(cfg):
    return to_frame_units(cfg)


def _gt_windows(cfg, n_sequences=25, bounce=None):
    """(positions, velocities, flags) triples from simulated ground truth."""
    out = []
    for i in range(n_sequences):
        traj = simulate_trajectory(cfg, RandomStream.from_seed(cfg.seed, "phys-tests", i))
        w = trajectory_windows(traj)
        for pos, vel, flags in zip(w.positions_px, w.velocities_fu, w.bounce_flags):
            has_bounce = flags[1] or flags[2]
            if bounce is None or bounce == has_bounce:
                out.append((pos, vel, flags))
    return out


class TestFrameUnits:
    def test_reference_constants_exact(self, params):
        assert abs(params.g_frame - 0.7848) <= 1e-12
        assert abs(0.5 * params.g_frame - 0.3924) <= 1e-12
        assert abs(params.v_max_frame - 22.2) <= 1e-12

    def test_bounds(self, params):
        assert params.center_min == 2.0
        assert params.center_max == 221.0

    def test_quadratic_scaling_in_dt(self, cfg):
        doubled = SimConfig(**{**_kw(cfg), "dt": 2 * cfg.dt})
        assert to_frame_units(doubled).g_frame == pytest.approx(4 * to_frame_units(cfg).g_frame)


def _kw(cfg):
    return asdict(cfg)


def _xy(x, y):
    return np.array([x, y])


class TestInitVelocity:
    def test_difference(self):
        assert init_velocity(_xy(100.0, 100.0), _xy(102.0, 97.0)).tolist() == [2.0, -3.0]

    def test_identical_points(self):
        assert init_velocity(_xy(5.0, 7.0), _xy(5.0, 7.0)).tolist() == [0.0, 0.0]

    def test_collision_detection_blind_to_third_frame(self, params):
        # the velocity estimate uses frames (t-1, t) only, so the bounce
        # flags cannot depend on where the third landmark sits
        lms_a = np.array([(100.0, 100.0), (103.0, 99.0), (106.0, 98.5)])
        lms_b = np.array([(100.0, 100.0), (103.0, 99.0), (120.0, 50.0)])
        assert np.array_equal(init_velocity(lms_a[0], lms_a[1]), init_velocity(lms_b[0], lms_b[1]))
        wa = physics_refine_window(lms_a, params)
        wb = physics_refine_window(lms_b, params)
        assert np.array_equal(wa.bounce_flags, wb.bounce_flags)


class TestVerletStep:
    def test_free_fall_from_rest(self, params):
        (x, y), (vx, vy), (bx, by) = verlet_step_with_bounce(_xy(100.0, 100.0), _xy(0.0, 0.0), params)
        assert (x, y) == (100.0, pytest.approx(100.3924, abs=1e-12))
        assert (vx, vy) == (0.0, pytest.approx(0.7848, abs=1e-12))
        assert not bx and not by

    def test_floor_bounce_hand_derivation(self, params):
        # y = 221 (exactly at the floor), vy = +3, e = 0.75:
        #   raw     = 221 + 3 + 0.3924          = 224.3924
        #   mirror  = 2*221 - 224.3924          = 217.6076
        #   v_half  = 3 + 0.3924 = 3.3924, reflected -> -2.5443
        #   v_final = -2.5443 + 0.3924          = -2.1519
        (x, y), (vx, vy), (bx, by) = verlet_step_with_bounce(_xy(100.0, 221.0), _xy(0.0, 3.0), params)
        assert by and not bx
        assert y == pytest.approx(217.6076, abs=1e-12)
        assert vy == pytest.approx(-2.1519, abs=1e-12)

    def test_horizontal_motion_unaccelerated(self, params):
        (x, y), (vx, vy), (bx, by) = verlet_step_with_bounce(_xy(100.0, 50.0), _xy(5.0, 0.0), params)
        assert x == 105.0 and vx == 5.0
        assert not bx

    def test_wall_bounce_full_step_velocity(self, params):
        (x, _), (vx, _), (bx, _) = verlet_step_with_bounce(_xy(220.0, 50.0), _xy(4.0, 0.0), params)
        assert bx
        assert x == pytest.approx(2 * 221.0 - 224.0)
        assert vx == pytest.approx(-0.75 * 4.0)

    def test_positions_clamped(self, params):
        # a shallow graze that mirrors back inside needs no clamping; feed a
        # case where the mirrored position is valid but extreme
        (x, _), _, (bx, _) = verlet_step_with_bounce(_xy(3.0, 50.0), _xy(-2.0, 0.0), params)
        assert bx and params.center_min <= x <= params.center_max


class TestSmoothCorrection:
    def test_exact_parabola_reconstruction(self, cfg, params):
        checked = 0
        for pos, vel, flags in _gt_windows(cfg, bounce=False)[:400]:
            positions, velocities = smooth_correction(pos[0], pos[2], params)
            assert positions.shape == velocities.shape == (3, 2)
            assert np.max(np.abs(positions - pos)) < 1e-9
            assert np.max(np.abs(velocities - vel)) < 1e-9
            checked += 1
        assert checked > 100

    def test_zero_gravity_degenerates_to_line(self):
        p = FrameUnitParams(g_frame=0.0, restitution=0.75, center_min=2, center_max=221,
                            v_max_frame=22.2)
        positions, velocities = smooth_correction(_xy(10.0, 20.0), _xy(16.0, 26.0), p)
        assert positions.tolist() == [[10, 20], [13, 23], [16, 26]]
        assert velocities.tolist() == [[3, 3], [3, 3], [3, 3]]

    def test_horizontal_midpoint(self, params):
        positions, _ = smooth_correction(_xy(10.0, 50.0), _xy(20.0, 60.0), params)
        assert positions[1, 0] == pytest.approx((10.0 + 20.0) / 2)


class TestRefineWindow:
    def test_parabola_fixed_point(self, cfg, params):
        checked = 0
        for pos, _, _ in _gt_windows(cfg, bounce=False)[:500]:
            if pos[:, 1].max() > params.center_max - params.g_frame:
                continue  # integrator overshoot would graze the floor
            win = physics_refine_window(pos, params)
            refined, flags = win.positions_px, win.bounce_flags
            assert np.max(np.abs(refined - pos)) < 1e-9
            assert not flags.any()
            checked += 1
        assert checked > 100

    def test_first_flag_always_false(self, cfg, params):
        for pos, _, _ in _gt_windows(cfg)[:50]:
            win = physics_refine_window(pos, params)
            assert win.bounce_flags[0] == False  # noqa: E712  (a numpy bool now)

    def test_bounce_detected_when_straddling_forward_step(self, cfg, params):
        # windows whose only bounce is in the step the integrator predicts
        hits = 0
        total = 0
        for pos, _, flags in _gt_windows(cfg, bounce=True):
            if not (flags[2] and not flags[1]):
                continue
            win = physics_refine_window(pos, params)
            total += 1
            hits += int(win.bounce_flags[2])
        assert total > 20
        assert hits / total >= 0.95

    def test_middle_perturbation_pulled_toward_parabola(self, params):
        g = params.g_frame
        p0 = (100.0, 100.0)
        p1 = (104.0, 103.0 + 0.5 * g)
        p2 = (108.0, 106.0 + 2.0 * g)
        exact = physics_refine_window(np.array([p0, p1, p2]), params)
        assert np.allclose(np.array(exact.positions_px), [p0, p1, p2], atol=1e-12)
        bumped = np.array([(p0[0], p0[1]), (p1[0], p1[1] + 1.0), (p2[0], p2[1])])
        win = physics_refine_window(bumped, params)
        # the refined middle frame ignores the bump: it stays on the
        # parabola through the endpoints
        assert win.positions_px[1][1] == pytest.approx(p1[1], abs=1e-12)

    def test_positions_within_bounds_after_clamping(self, params):
        lms = np.array([(3.0, 220.5), (2.5, 220.9), (2.1, 220.99)])
        win = physics_refine_window(lms, params)
        pos = win.positions_px
        assert pos.min() >= params.center_min and pos.max() <= params.center_max

    def test_degenerate_and_out_of_region_landmarks_stay_finite(self, params):
        # all-zero heatmaps yield origin landmarks; border argmaxes can land
        # outside the valid center region; refinement must clamp, not blow up
        rng = RandomStream.from_seed(17, "fuzz")
        cases = [np.zeros((3, 2)), np.full((3, 2), 223.0)]
        for _ in range(50):
            cases.append(rng.uniform(0.0, 223.0, 6).reshape(3, 2))
        for lms in cases:
            win = physics_refine_window(lms, params)
            pos, vel, flags = win.positions_px, win.velocities_fu, win.bounce_flags
            assert np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))
            assert pos.min() >= params.center_min and pos.max() <= params.center_max
            assert flags[0] == False  # noqa: E712  (first frame has no step)

    def test_scale_consistency(self, cfg, params):
        half_cfg = SimConfig(**{**_kw(cfg), "scale": 2 * cfg.scale})
        params2 = to_frame_units(half_cfg)
        lms = np.array([(60.0, 80.0), (64.0, 83.2), (68.0, 87.1)])
        w1 = physics_refine_window(lms, params)
        w2 = physics_refine_window(lms / 2, params2)
        assert np.allclose(np.array(w2.positions_px), np.array(w1.positions_px) / 2, atol=1e-12)
        assert np.allclose(np.array(w2.velocities_fu), np.array(w1.velocities_fu) / 2, atol=1e-12)


class TestBatchedWindow:
    """One call on an (N, 3, 2) batch must equal N single-window calls, bit for bit."""

    @pytest.fixture(scope="class")
    def landmarks(self, cfg):
        # ground-truth windows (both branches) plus out-of-region fuzz
        pos = [w[0] for w in _gt_windows(cfg, n_sequences=5)]
        rng = RandomStream.from_seed(23, "batch-fuzz")
        pos += [rng.uniform(-5.0, 228.0, 6).reshape(3, 2) for _ in range(40)]
        return np.array(pos)

    def test_matches_scalar_windows(self, landmarks, params):
        win = physics_refine_window(landmarks, params)
        pos, vel, flags = win.positions_px, win.velocities_fu, win.bounce_flags
        assert pos.shape == vel.shape == landmarks.shape
        assert flags.shape == landmarks.shape[:2]
        assert flags[:, 1:].any() and not flags[:, 1:].all()  # both branches taken
        for k, lms in enumerate(landmarks):
            one = physics_refine_window(lms, params)
            p, v, b = one.positions_px, one.velocities_fu, one.bounce_flags
            assert p.tobytes() == pos[k].tobytes()
            assert v.tobytes() == vel[k].tobytes()
            assert np.array_equal(b, flags[k])

    def test_scalar_window_arrays_shapes(self, params):
        win = physics_refine_window(np.array([(10.0, 20.0), (12.0, 21.0), (14.0, 22.5)]), params)
        pos, vel, flags = win.positions_px, win.velocities_fu, win.bounce_flags
        assert pos.shape == vel.shape == (3, 2) and flags.shape == (3,)
        assert flags.dtype == bool and pos.dtype == vel.dtype == np.float64

    def test_dual_components_follow_branch(self, landmarks, params):
        import balltrack.autodiff as ad

        seed = np.zeros_like(landmarks)
        seed[:, 2, 0] = 1.0
        win = physics_refine_window(ad.Dual(landmarks, seed), params)
        ref = physics_refine_window(landmarks, params)
        plain, flags = ref.positions_px, ref.bounce_flags
        assert np.array_equal(win.positions_px.value, plain)
        # x2 only enters the parabola branch: d x1 / d x2_landmark = 1/2 there
        smooth = ~(flags[:, 1] | flags[:, 2]) & (plain[:, 1, 0] > params.center_min) \
            & (plain[:, 1, 0] < params.center_max)
        assert smooth.any()
        assert np.all(win.positions_px[:, 1, 0].tangent[smooth] == 0.5)
        assert np.all(win.positions_px[:, 1, 0].tangent[flags[:, 1] | flags[:, 2]] == 0.0)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balltrack.physics import to_frame_units
from balltrack.rng import RandomStream
from balltrack.sim import (
    BallState,
    SimConfig,
    SimulationError,
    project_to_pixels,
    sample_initial_conditions,
    simulate_trajectory,
    step_physical,
    trajectory_windows,
    window_index,
)


def _stream(i=0):
    return RandomStream.from_seed(42, "test-sim", i)


class TestConfig:
    def test_defaults_match_standard_setup(self):
        cfg = SimConfig()
        assert cfg.image_size == 224
        assert cfg.scale == 0.02
        assert cfg.dt == 0.04
        assert cfg.gravity == 9.81
        assert cfg.restitution == 0.75
        assert cfg.radius_px == 2.0
        assert cfg.v_max == 11.1
        assert cfg.frames_per_video == 40
        assert (cfg.n_train, cfg.n_val, cfg.n_test) == (100, 50, 100)
        assert cfg.seed == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"image_size": 0},
            {"scale": 0.0},
            {"dt": -0.1},
            {"gravity": 0.0},
            {"restitution": 0.0},
            {"restitution": 1.2},
            {"radius_px": 0.0},
            {"radius_px": 112.0},
            {"v_max": 0.0},
            {"frames_per_video": 2},
            {"noise_sigma": -1.0},
            {"n_train": 0},
            {"n_val": -1},
            {"n_test": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["scale", "dt", "gravity", "restitution", "radius_px",
                                       "v_max", "noise_sigma"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(SimulationError, match="finite"):
            SimConfig(**{field: value})

    def test_wall_crossing_config_rejected(self):
        # a single step must not be able to span the whole domain
        with pytest.raises(SimulationError):
            SimConfig(v_max=200.0)


class TestInitialConditions:
    def test_position_bounds(self, cfg):
        lo = cfg.center_min_px * cfg.scale
        hi = cfg.center_max_px * cfg.scale
        assert (lo, hi) == (0.04, pytest.approx(4.42))
        for i in range(200):
            s = sample_initial_conditions(cfg, _stream(i))
            assert np.all(s.position >= lo) and np.all(s.position <= hi)

    def test_velocity_bounds(self, cfg):
        for i in range(200):
            s = sample_initial_conditions(cfg, _stream(i))
            assert np.all(np.abs(s.velocity) <= cfg.v_max)

    def test_repeatable_for_same_stream_state(self, cfg):
        a = sample_initial_conditions(cfg, _stream(3))
        b = sample_initial_conditions(cfg, _stream(3))
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)

    def test_positions_cover_the_region(self, cfg):
        lo = cfg.center_min_px * cfg.scale
        hi = cfg.center_max_px * cfg.scale
        xs = np.array([sample_initial_conditions(cfg, _stream(i)).position[0] for i in range(400)])
        # both outer tenths of the interval get hit
        width = hi - lo
        assert xs.min() < lo + 0.1 * width and xs.max() > hi - 0.1 * width


class TestStep:
    def test_free_fall_displacement(self, cfg):
        # from rest, one step falls (g/2) dt^2 = 0.007848 m = 0.3924 px
        state = BallState(np.array([2.0, 2.0]), np.array([0.0, 0.0]))
        new, (bx, by) = step_physical(state, cfg)
        assert not bx and not by
        dy = new.position[1] - 2.0
        assert dy == pytest.approx(0.007848, abs=1e-15)
        assert dy / cfg.scale == pytest.approx(0.3924, abs=1e-12)
        assert new.velocity[1] == pytest.approx(cfg.gravity * cfg.dt)

    def test_horizontal_wall_reflection_scales_velocity(self, cfg):
        # vx has no acceleration: a 10 m/s wall hit rebounds at -7.5 m/s
        hi = cfg.center_max_px * cfg.scale
        state = BallState(np.array([hi - 0.05, 2.0]), np.array([10.0, 0.0]))
        new, (bx, by) = step_physical(state, cfg)
        assert bx and not by
        assert new.velocity[0] == pytest.approx(-7.5)

    def test_floor_reflection_uses_post_step_velocity(self, cfg):
        hi = cfg.center_max_px * cfg.scale
        vy = 10.0
        state = BallState(np.array([2.0, hi - 0.1]), np.array([0.0, vy]))
        new, (bx, by) = step_physical(state, cfg)
        assert by and not bx
        # overshoot mirrored about the floor; velocity is the reflected
        # post-step velocity -e (vy + g dt)
        raw = (hi - 0.1) + vy * cfg.dt + 0.5 * cfg.gravity * cfg.dt**2
        assert new.position[1] == pytest.approx(2 * hi - raw, abs=1e-12)
        assert new.velocity[1] == pytest.approx(-0.75 * (vy + cfg.gravity * cfg.dt), abs=1e-12)

    def test_elastic_wall_hit_preserves_speed(self):
        cfg = SimConfig(restitution=1.0)
        hi = cfg.center_max_px * cfg.scale
        state = BallState(np.array([hi - 0.01, 2.0]), np.array([8.0, 0.0]))
        new, (bx, _) = step_physical(state, cfg)
        assert bx
        assert abs(new.velocity[0]) == pytest.approx(8.0)
        assert new.velocity[0] < 0

    def test_double_crossing_raises(self, cfg):
        # mirroring about the far wall would land below the near wall
        state = BallState(np.array([0.1, 0.1]), np.array([250.0, 0.0]))
        with pytest.raises(SimulationError):
            step_physical(state, cfg)

    def test_corner_hit_bounces_both_axes_in_one_step(self, cfg):
        # left wall (lo = 0.04 m) and floor (hi = 4.42 m) in the same step
        state = BallState(np.array([0.09, 4.32]), np.array([-10.0, 10.0]))
        new, bounced = step_physical(state, cfg)
        assert bounced.tolist() == [True, True]
        # raw (-0.31, 4.727848) mirrored to (2 lo + 0.31, 2 hi - 4.727848)
        assert new.position == pytest.approx([0.39, 4.112152], abs=1e-12)
        # post-step velocity (-10, 10 + g dt) scaled by -e on both axes
        assert new.velocity == pytest.approx([7.5, -7.7943], abs=1e-12)

    @settings(deadline=None)
    @given(st.data())
    def test_step_reflects_exactly_the_axes_that_left_the_region(self, data):
        cfg = SimConfig()
        lo, hi = cfg.center_min_px * cfg.scale, cfg.center_max_px * cfg.scale
        g, dt, e = cfg.gravity, cfg.dt, cfg.restitution
        p = data.draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2))
        v = data.draw(st.lists(st.floats(-cfg.v_max, cfg.v_max), min_size=2, max_size=2))
        try:
            new, bounced = step_physical(BallState(np.array(p), np.array(v)), cfg)
        except SimulationError:
            return
        raw = [p[0] + v[0] * dt, p[1] + v[1] * dt + 0.5 * g * dt * dt]
        v_new = [v[0], v[1] + g * dt]
        for k in range(2):
            assert lo <= new.position[k] <= hi
            assert bounced[k] == (not lo <= raw[k] <= hi)
            assert new.velocity[k] == (-e * v_new[k] if bounced[k] else v_new[k])


class TestProjection:
    def test_domain_corner(self, cfg):
        assert np.allclose(project_to_pixels((4.48, 4.48), cfg), (224.0, 224.0))

    def test_origin(self, cfg):
        assert np.allclose(project_to_pixels((0.0, 0.0), cfg), (0.0, 0.0))

    def test_hand_values(self, cfg):
        assert np.allclose(project_to_pixels((0.04, 0.08), cfg), (2.0, 4.0))


class TestTrajectory:
    def test_lengths_and_first_flag(self, cfg):
        traj = simulate_trajectory(cfg, _stream())
        assert len(traj.positions_px) == len(traj.velocities_fu) == len(traj.bounce_flags) == 40
        assert not traj.bounce_flags[0]

    def test_bounce_free_second_difference_is_g_frame(self, cfg):
        g_frame = to_frame_units(cfg).g_frame
        checked = 0
        for i in range(20):
            traj = simulate_trajectory(cfg, _stream(i))
            y = traj.positions_px[:, 1]
            x = traj.positions_px[:, 0]
            for t in range(1, len(traj) - 1):
                if traj.bounce_flags[t] or traj.bounce_flags[t + 1]:
                    continue
                assert y[t + 1] - 2 * y[t] + y[t - 1] == pytest.approx(g_frame, abs=1e-9)
                assert x[t + 1] - 2 * x[t] + x[t - 1] == pytest.approx(0.0, abs=1e-9)
                checked += 1
        assert checked > 100

    def test_deterministic_bytes(self, cfg):
        a = simulate_trajectory(cfg, _stream(5))
        b = simulate_trajectory(cfg, _stream(5))
        assert a.positions_px.tobytes() == b.positions_px.tobytes()
        assert a.velocities_fu.tobytes() == b.velocities_fu.tobytes()
        assert a.bounce_flags.tobytes() == b.bounce_flags.tobytes()

    def test_positions_always_inside_valid_region(self, cfg):
        # exhaustive over 100 generated sequences
        for i in range(100):
            traj = simulate_trajectory(cfg, _stream(i))
            assert traj.positions_px.min() >= cfg.center_min_px - 1e-12
            assert traj.positions_px.max() <= cfg.center_max_px + 1e-12

    def test_parabola_reconstruction_over_bounce_free_windows(self, cfg):
        # position at t follows exactly from (p_{t-1}, v_{t-1})
        g_frame = to_frame_units(cfg).g_frame
        traj = simulate_trajectory(cfg, _stream(2))
        for pos, vel, flags in zip(*trajectory_windows(traj)):
            if flags[1] or flags[2]:
                continue
            pred_x = pos[0, 0] + vel[0, 0]
            pred_y = pos[0, 1] + vel[0, 1] + 0.5 * g_frame
            assert pred_x == pytest.approx(pos[1, 0], abs=1e-9)
            assert pred_y == pytest.approx(pos[1, 1], abs=1e-9)

    def test_windows_gather_three_consecutive_frames(self, cfg):
        traj = simulate_trajectory(cfg, _stream(3))
        pos, vel, flags = trajectory_windows(traj)
        assert pos.shape == vel.shape == (38, 3, 2) and flags.shape == (38, 3)
        assert window_index(5).tolist() == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]
        for k in range(38):
            assert np.array_equal(pos[k], traj.positions_px[k : k + 3])
            assert np.array_equal(vel[k], traj.velocities_fu[k : k + 3])
            assert np.array_equal(flags[k], traj.bounce_flags[k : k + 3])

    def test_energy_dissipates_for_fast_impacts(self, cfg):
        # mirror reflection can inject energy only below the slow-impact
        # threshold 4 g dt / (1 - e^2); above it every bounce dissipates
        threshold = 4 * cfg.gravity * cfg.dt / (1 - cfg.restitution**2)
        floor_m = cfg.center_max_px * cfg.scale

        def energy(state):
            h = floor_m - state.position[1]
            return 0.5 * float(state.velocity @ state.velocity) + cfg.gravity * h

        checked = 0
        for i in range(50):
            state = sample_initial_conditions(cfg, _stream(i))
            for _ in range(cfg.frames_per_video - 1):
                e0 = energy(state)
                impact = np.abs(state.velocity) + cfg.gravity * cfg.dt
                new, (bx, by) = step_physical(state, cfg)
                if (bx or by) and impact.min() > threshold:
                    assert energy(new) <= e0 + 1e-9
                    checked += 1
                state = new
        assert checked > 20

    def test_no_bounce_step_conserves_energy(self, cfg):
        floor_m = cfg.center_max_px * cfg.scale

        def energy(state):
            h = floor_m - state.position[1]
            return 0.5 * float(state.velocity @ state.velocity) + cfg.gravity * h

        state = BallState(np.array([2.0, 2.0]), np.array([3.0, 1.0]))
        for _ in range(10):
            e0 = energy(state)
            state, (bx, by) = step_physical(state, cfg)
            if not (bx or by):
                assert energy(state) == pytest.approx(e0, abs=1e-9)

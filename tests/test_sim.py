import hashlib
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import balltrack.autodiff as ad
from balltrack.physics import to_frame_units
from balltrack.rng import RandomStream
from balltrack.sim import (
    _MAX_MIRRORS,
    _MAX_NORMAL,
    SimConfig,
    SimulationError,
    Trajectory,
    project_to_pixels,
    sample_initial_conditions,
    simulate_trajectory,
    step_physical,
    trajectory_windows,
    window_index,
)
from balltrack.video import generate_split, read_dataset, write_dataset

from reference_tables import BOUNCE_HEAVY_TRUTH_DIGESTS

# the SimConfig fields that hold sizes, counts and the seed
_INT_FIELDS = ("image_size", "frames_per_video", "n_train", "n_val", "n_test", "seed")


def _stream(i=0):
    return RandomStream.from_seed(42, "test-sim", i)


def _array_step(position, velocity, cfg):
    """The reference step on (2,) arrays, both axes in each numpy call, with the
    same IEEE operations in the same order as the package's float step."""
    g, dt, e = cfg.gravity, cfg.dt, cfg.restitution
    lo, hi = cfg.center_min_px * cfg.scale, cfg.center_max_px * cfg.scale
    position = position + velocity * dt + (0.0, g * dt * dt / 2)
    velocity = velocity + (0.0, g * dt)
    low = position < lo
    out = bounced = low | (position > hi)
    while out.any():
        position = np.where(out, 2.0 * np.where(low, lo, hi) - position, position)
        velocity = np.where(out, -e * velocity, velocity)
        low = position < lo
        out = low | (position > hi)
    return position, velocity, bounced


def _array_loop_trajectory(cfg, rng):
    """The reference simulator: positions [px], velocities [px/frame] and bounce
    flags from a loop of :func:`_array_step`."""
    n = cfg.frames_per_video
    positions, velocities = np.empty((n, 2)), np.empty((n, 2))
    flags = np.zeros(n, dtype=bool)
    positions[0], velocities[0] = sample_initial_conditions(cfg, rng)
    for t in range(1, n):
        positions[t], velocities[t], bounced = _array_step(positions[t - 1], velocities[t - 1], cfg)
        flags[t] = bounced.any()
    return positions / cfg.scale, velocities * (cfg.dt / cfg.scale), flags


@st.composite
def _sim_configs(draw):
    """Valid configurations over every simulator parameter; v_max is drawn as a
    share of its limit, the domain width per frame, so fast wall-to-wall steps
    and multi-reflection steps at e = 1 are common."""
    size = draw(st.integers(8, 64))
    radius, scale, dt = draw(st.floats(0.5, 3.0)), draw(st.floats(0.005, 0.05)), draw(st.floats(0.01, 0.1))
    width = (size - 1 - 2 * radius) * scale
    return SimConfig(image_size=size, radius_px=radius, scale=scale, dt=dt, gravity=draw(st.floats(0.5, 30.0)),
                     restitution=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
                     v_max=draw(st.floats(0.01, 0.999)) * width / dt, frames_per_video=draw(st.integers(3, 120)))


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
            {"seed": -1},  # the seeds outside 64 bits, which once aliased seeds inside them
            {"seed": 2**64},
            {"noise_sigma": 1e308},  # float32 noise that can overflow to inf
            {"noise_sigma": 4e37},
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

    @pytest.mark.parametrize("value", [64.0, 12.5, True, np.True_, "64"])
    @pytest.mark.parametrize("field", _INT_FIELDS)
    def test_non_integral_sizes_and_counts_rejected(self, field, value):
        with pytest.raises(SimulationError, match=f"must be integers: {field}="):
            SimConfig(**{field: value})

    def test_numpy_integers_accepted_as_ints(self, tmp_path):
        cfg = SimConfig(image_size=np.int64(64), frames_per_video=np.int32(5), n_test=np.uint8(2),
                        seed=np.int64(7))
        assert cfg == SimConfig(image_size=64, frames_per_video=5, n_test=2, seed=7)
        assert all(type(getattr(cfg, name)) is int for name in _INT_FIELDS)
        write_dataset(tmp_path, "test", generate_split(cfg, "test"), cfg)
        assert read_dataset(tmp_path, "test")[1] == cfg

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_ends_of_64_bits_admitted(self, seed):
        assert SimConfig(seed=seed).seed == seed

    def test_sigma_bound_is_the_largest_normal_draw(self):
        # Box-Muller's largest radius comes from the smallest 1 - u, 2^-53; an
        # ulp either way is far below the half float32 ulp that rounds to inf
        radius = np.sqrt(-2.0 * np.log(np.subtract(1.0, 1.0 - 2.0**-53)))
        assert radius == pytest.approx(_MAX_NORMAL, rel=1e-15) and _MAX_NORMAL == pytest.approx(8.5717, abs=1e-4)
        largest = np.nextafter(float(np.finfo(np.float32).max) / _MAX_NORMAL, 0.0)
        assert SimConfig(noise_sigma=largest).noise_sigma == largest
        assert np.isfinite(np.float32(largest * radius))
        with pytest.raises(SimulationError, match="can overflow the float32 noise image"):
            SimConfig(noise_sigma=largest * 1.000001)

    def test_negative_zero_sigma_stored_as_zero(self):
        cfg = SimConfig(noise_sigma=-0.0)
        assert cfg == SimConfig() and math.copysign(1.0, cfg.noise_sigma) == 1.0
        assert json.dumps(asdict(cfg)) == json.dumps(asdict(SimConfig()))

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
            position, _ = sample_initial_conditions(cfg, _stream(i))
            assert np.all(position >= lo) and np.all(position <= hi)

    def test_velocity_bounds(self, cfg):
        for i in range(200):
            _, velocity = sample_initial_conditions(cfg, _stream(i))
            assert np.all(np.abs(velocity) <= cfg.v_max)

    def test_repeatable_for_same_stream_state(self, cfg):
        a = sample_initial_conditions(cfg, _stream(3))
        b = sample_initial_conditions(cfg, _stream(3))
        assert np.array_equal(a, b)

    def test_positions_cover_the_region(self, cfg):
        lo = cfg.center_min_px * cfg.scale
        hi = cfg.center_max_px * cfg.scale
        xs = np.array([sample_initial_conditions(cfg, _stream(i))[0][0] for i in range(400)])
        # both outer tenths of the interval get hit
        width = hi - lo
        assert xs.min() < lo + 0.1 * width and xs.max() > hi - 0.1 * width


class TestStep:
    def test_free_fall_displacement(self, cfg):
        # from rest, one step falls (g/2) dt^2 = 0.007848 m = 0.3924 px
        p, v, (bx, by) = step_physical(np.array([2.0, 2.0]), np.array([0.0, 0.0]), cfg)
        assert not bx and not by
        dy = p[1] - 2.0
        assert dy == pytest.approx(0.007848, abs=1e-15)
        assert dy / cfg.scale == pytest.approx(0.3924, abs=1e-12)
        assert v[1] == pytest.approx(cfg.gravity * cfg.dt)

    def test_horizontal_wall_reflection_scales_velocity(self, cfg):
        # vx has no acceleration: a 10 m/s wall hit rebounds at -7.5 m/s
        hi = cfg.center_max_px * cfg.scale
        _, v, (bx, by) = step_physical(np.array([hi - 0.05, 2.0]), np.array([10.0, 0.0]), cfg)
        assert bx and not by
        assert v[0] == pytest.approx(-7.5)

    def test_floor_reflection_uses_post_step_velocity(self, cfg):
        hi = cfg.center_max_px * cfg.scale
        vy = 10.0
        p, v, (bx, by) = step_physical(np.array([2.0, hi - 0.1]), np.array([0.0, vy]), cfg)
        assert by and not bx
        # overshoot mirrored about the floor; velocity is the reflected
        # post-step velocity -e (vy + g dt)
        raw = (hi - 0.1) + vy * cfg.dt + 0.5 * cfg.gravity * cfg.dt**2
        assert p[1] == pytest.approx(2 * hi - raw, abs=1e-12)
        assert v[1] == pytest.approx(-0.75 * (vy + cfg.gravity * cfg.dt), abs=1e-12)

    def test_elastic_wall_hit_preserves_speed(self):
        cfg = SimConfig(restitution=1.0)
        hi = cfg.center_max_px * cfg.scale
        _, v, (bx, _) = step_physical(np.array([hi - 0.01, 2.0]), np.array([8.0, 0.0]), cfg)
        assert bx
        assert abs(v[0]) == pytest.approx(8.0)
        assert v[0] < 0

    def test_double_crossing_mirrors_until_inside(self, cfg):
        # raw x = 10.1 m: mirrored about the far wall (hi = 4.42 m) it lands at
        # -1.26, below the near wall (lo = 0.04 m), and mirrored again at 1.34;
        # two reflections scale the post-step velocity by (-e)^2
        p, v, bounced = step_physical(np.array([0.1, 0.1]), np.array([250.0, 0.0]), cfg)
        assert bounced.tolist() == [True, False]
        assert p[0] == pytest.approx(2 * 0.04 - (2 * 4.42 - 10.1), abs=1e-12)
        assert v.tolist() == [(-cfg.restitution) ** 2 * 250.0, cfg.gravity * cfg.dt]

    @settings(deadline=None)
    @given(x=st.floats(0.04, 4.42), vx=st.floats(-2000.0, 2000.0), e=st.sampled_from([0.5, 0.75, 1.0]))
    def test_any_overshoot_ends_inside_with_one_factor_per_reflection(self, x, vx, e):
        cfg = SimConfig(restitution=e)
        lo, hi = cfg.center_min_px * cfg.scale, cfg.center_max_px * cfg.scale
        p, v, bounced = step_physical(np.array([x, 2.0]), np.array([vx, 0.0]), cfg)
        assert lo <= p[0] <= hi
        raw = x + vx * cfg.dt
        if not bounced[0]:
            assert (p[0], v[0]) == (raw, vx)
            return
        # the unfolded path crosses a wall once per domain width past the first;
        # an overshoot of a whole number of widths ends on a wall, where
        # rounding decides whether the last crossing counts
        widths = (raw - hi if raw > hi else lo - raw) / (hi - lo)
        assume(abs(widths - round(widths)) > 1e-9)
        k = 1 + math.floor(widths)
        assert p[0] == pytest.approx(lo + abs((raw - lo + (hi - lo)) % (2 * (hi - lo)) - (hi - lo)), abs=1e-9)
        assert v[0] == pytest.approx((-e) ** k * vx, rel=1e-12)

    def test_infinite_position_raises(self, cfg):
        with pytest.raises(SimulationError, match=r"non-finite position \(inf, 2\.0"):
            step_physical(np.array([np.inf, 2.0]), np.array([0.0, 0.0]), cfg)

    @pytest.mark.parametrize("vx", [1e9, 1e20])
    def test_overshoot_of_too_many_domain_widths_raises(self, cfg, vx):
        # mirrored one wall at a time, 1e9 m/s once took seconds, and at 1e20 a
        # mirror pair rounded back to where it started, so the step never ended
        message = f"step from 0.1 m at {vx} m/s overshoots a wall by over {2**20} widths"
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            step_physical(np.array([0.1, 2.0]), np.array([vx, 0.0]), cfg)

    def test_overshoot_just_inside_the_mirror_bound_steps(self):
        cfg = SimConfig(restitution=1.0)
        lo, hi = cfg.center_min_px * cfg.scale, cfg.center_max_px * cfg.scale
        vx = (hi + (_MAX_MIRRORS - 0.5) * (hi - lo) - 1.0) / cfg.dt  # from x = 1 m
        p, v, bounced = step_physical(np.array([1.0, 2.0]), np.array([vx, 0.0]), cfg)
        assert bounced[0] and lo <= p[0] <= hi and abs(v[0]) == vx

    def test_config_that_once_crossed_both_walls_generates(self):
        # seed 66107 once raised "step crossed both walls" in its second step
        cfg = SimConfig(image_size=8, v_max=1.0, frames_per_video=3, n_test=1, seed=66107)
        (seq,) = generate_split(cfg, "test")
        positions = seq.trajectory.positions_px
        assert ((cfg.center_min_px <= positions) & (positions <= cfg.center_max_px)).all()
        assert seq.trajectory.bounce_flags.tolist() == [False, False, True]

    def test_corner_hit_bounces_both_axes_in_one_step(self, cfg):
        # left wall (lo = 0.04 m) and floor (hi = 4.42 m) in the same step
        p, v, bounced = step_physical(np.array([0.09, 4.32]), np.array([-10.0, 10.0]), cfg)
        assert bounced.tolist() == [True, True]
        # raw (-0.31, 4.727848) mirrored to (2 lo + 0.31, 2 hi - 4.727848)
        assert p == pytest.approx([0.39, 4.112152], abs=1e-12)
        # post-step velocity (-10, 10 + g dt) scaled by -e on both axes
        assert v == pytest.approx([7.5, -7.7943], abs=1e-12)

    @settings(deadline=None)
    @given(st.data())
    def test_step_reflects_exactly_the_axes_that_left_the_region(self, data):
        cfg = SimConfig()
        lo, hi = cfg.center_min_px * cfg.scale, cfg.center_max_px * cfg.scale
        g, dt, e = cfg.gravity, cfg.dt, cfg.restitution
        p = data.draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2))
        v = data.draw(st.lists(st.floats(-cfg.v_max, cfg.v_max), min_size=2, max_size=2))
        new_p, new_v, bounced = step_physical(np.array(p), np.array(v), cfg)
        raw = [p[0] + v[0] * dt, p[1] + v[1] * dt + 0.5 * g * dt * dt]
        v_new = [v[0], v[1] + g * dt]
        for k in range(2):
            assert lo <= new_p[k] <= hi
            assert bounced[k] == (not lo <= raw[k] <= hi)
            assert new_v[k] == (-e * v_new[k] if bounced[k] else v_new[k])


def _same_bits(got, want):
    return all((np.asarray(a).dtype, np.shape(a), np.asarray(a).tobytes()) ==
               (np.asarray(b).dtype, np.shape(b), np.asarray(b).tobytes()) for a, b in zip(got, want, strict=True))


class TestAgainstArrayReference:
    @settings(deadline=None)
    @given(data=st.data(), cfg=_sim_configs())
    def test_step_equals_the_array_step_bit_for_bit(self, data, cfg):
        # positions on and inside the walls, velocities up to 3 v_max, signed zeros included
        lo, hi = cfg.center_min_px * cfg.scale, cfg.center_max_px * cfg.scale
        position = np.array(data.draw(st.lists(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)),
                                               min_size=2, max_size=2)))
        velocity = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                                                         st.floats(-3 * cfg.v_max, 3 * cfg.v_max)),
                                               min_size=2, max_size=2)))
        assert _same_bits(step_physical(position, velocity, cfg), _array_step(position, velocity, cfg))

    def test_negative_zero_x_velocity_steps_to_positive_zero(self, cfg):
        # the x axis gets the + 0.0 of the (0, g dt) kick, as in the array step
        _, v, _ = step_physical(np.array([2.0, 2.0]), np.array([-0.0, 0.0]), cfg)
        assert math.copysign(1.0, v[0]) == 1.0

    @settings(deadline=None)
    @given(cfg=_sim_configs(), seed=st.integers(0, 2**32))
    def test_equals_the_array_loop_bit_for_bit(self, cfg, seed):
        traj = simulate_trajectory(cfg, RandomStream.from_seed(seed, "test-sim"))
        reference = _array_loop_trajectory(cfg, RandomStream.from_seed(seed, "test-sim"))
        assert _same_bits(vars(traj).values(), reference)


class TestBounceHeavyBytes:
    @pytest.mark.parametrize("name", list(BOUNCE_HEAVY_TRUTH_DIGESTS))
    def test_truth_matches_recorded_digest(self, tmp_path, name):
        kwargs, digest = BOUNCE_HEAVY_TRUTH_DIGESTS[name]
        cfg = SimConfig(**kwargs)
        write_dataset(tmp_path, "test", generate_split(cfg, "test"), cfg)
        assert hashlib.sha256((tmp_path / "test_truth.bin").read_bytes()).hexdigest() == digest


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

    def test_arrays_of_unequal_length_rejected(self):
        with pytest.raises(SimulationError, match=r"^trajectory positions \(3, 2\) and velocities \(3, 2\) "
                                                  r"do not fit bounce flags \(2,\)$"):
            Trajectory(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(2, bool))

    def test_stacked_arrays_of_unequal_frame_counts_rejected(self):
        # equal leading (batch) lengths are not enough: every axis but (x, y) must agree
        with pytest.raises(SimulationError, match=r"^trajectory positions \(2, 40, 2\) and velocities "
                                                  r"\(2, 39, 2\) do not fit bounce flags \(2, 40\)$"):
            Trajectory(np.zeros((2, 40, 2)), np.zeros((2, 39, 2)), np.zeros((2, 40), bool))

    def test_dual_valued_window_accepted(self):
        # the shape rule reads Dual.shape; a Dual has no len()
        window = Trajectory(ad.Dual(np.zeros((3, 2)), np.ones((3, 2))),
                            ad.Dual(np.zeros((3, 2)), np.ones((3, 2))), np.zeros(3, bool))
        assert np.shape(window.positions_px) == np.shape(window.velocities_fu) == (3, 2)

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
        w = trajectory_windows(traj)
        for pos, vel, flags in zip(w.positions_px, w.velocities_fu, w.bounce_flags):
            if flags[1] or flags[2]:
                continue
            pred_x = pos[0, 0] + vel[0, 0]
            pred_y = pos[0, 1] + vel[0, 1] + 0.5 * g_frame
            assert pred_x == pytest.approx(pos[1, 0], abs=1e-9)
            assert pred_y == pytest.approx(pos[1, 1], abs=1e-9)

    def test_windows_gather_three_consecutive_frames(self, cfg):
        traj = simulate_trajectory(cfg, _stream(3))
        w = trajectory_windows(traj)
        pos, vel, flags = w.positions_px, w.velocities_fu, w.bounce_flags
        assert pos.shape == vel.shape == (38, 3, 2) and flags.shape == (38, 3)
        assert window_index(5).tolist() == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]
        for k in range(38):
            assert np.array_equal(pos[k], traj.positions_px[k : k + 3])
            assert np.array_equal(vel[k], traj.velocities_fu[k : k + 3])
            assert np.array_equal(flags[k], traj.bounce_flags[k : k + 3])

    def test_windows_of_stacked_trajectories_are_each_ones_windows(self, cfg):
        trajs = [simulate_trajectory(cfg, _stream(i)) for i in range(2)]
        stacked = trajectory_windows(Trajectory.stack(trajs))
        assert np.shape(stacked.bounce_flags) == (2, 38, 3)
        for k, traj in enumerate(trajs):
            for field, own in vars(trajectory_windows(traj)).items():
                assert np.array_equal(vars(stacked)[field][k], own), field

    def test_energy_dissipates_for_fast_impacts(self, cfg):
        # mirror reflection can inject energy only below the slow-impact
        # threshold 4 g dt / (1 - e^2); above it every bounce dissipates
        threshold = 4 * cfg.gravity * cfg.dt / (1 - cfg.restitution**2)
        floor_m = cfg.center_max_px * cfg.scale

        def energy(p, v):
            return 0.5 * float(v @ v) + cfg.gravity * (floor_m - p[1])

        checked = 0
        for i in range(50):
            p, v = sample_initial_conditions(cfg, _stream(i))
            for _ in range(cfg.frames_per_video - 1):
                e0 = energy(p, v)
                impact = np.abs(v) + cfg.gravity * cfg.dt
                p, v, (bx, by) = step_physical(p, v, cfg)
                if (bx or by) and impact.min() > threshold:
                    assert energy(p, v) <= e0 + 1e-9
                    checked += 1
        assert checked > 20

    def test_no_bounce_step_conserves_energy(self, cfg):
        floor_m = cfg.center_max_px * cfg.scale

        def energy(p, v):
            return 0.5 * float(v @ v) + cfg.gravity * (floor_m - p[1])

        p, v = np.array([2.0, 2.0]), np.array([3.0, 1.0])
        for _ in range(10):
            e0 = energy(p, v)
            p, v, (bx, by) = step_physical(p, v, cfg)
            if not (bx or by):
                assert energy(p, v) == pytest.approx(e0, abs=1e-9)


def _bits(traj):
    """dtype, shape and bytes of each array of a trajectory, a dual vector's
    value and tangent each."""
    parts = [part for a in vars(traj).values()
             for part in ((ad.value(a), np.broadcast_to(ad.tangent(a), np.shape(a))) if isinstance(a, ad.Dual)
                          else (a,))]
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, parts)]


def _per_field_windows(traj):
    """The windows by per-field indexing, as :func:`trajectory_windows` once
    gathered them."""
    index = window_index(np.shape(traj.bounce_flags)[-1])
    return Trajectory(traj.positions_px[..., index, :], traj.velocities_fu[..., index, :],
                      traj.bounce_flags[..., index])


@st.composite
def _trajectories(draw, count):
    """``count`` trajectories of one drawn shape, 0-2 leading axes and 3-6
    frames, every float drawn (signed zeros, NaN and infinities too); the
    vectors are arrays, or duals with a tangent of their shape."""
    shape = (*draw(st.lists(st.integers(1, 3), max_size=2)), draw(st.integers(3, 6)))
    dual = draw(st.booleans())

    def vector():
        value = draw(arrays(np.float64, (*shape, 2)))
        return ad.Dual(value, draw(arrays(np.float64, (*shape, 2)))) if dual else value

    return [Trajectory(vector(), vector(), draw(arrays(np.bool_, shape))) for _ in range(count)]


class TestIndexAndStack:
    @given(data=st.data(), count=st.integers(1, 3))
    def test_stack_then_index_gives_each_trajectory_bit_for_bit(self, data, count):
        trajs = data.draw(_trajectories(count))
        stacked = Trajectory.stack(trajs)
        assert np.shape(stacked.bounce_flags) == (count, *np.shape(trajs[0].bounce_flags))
        for i in (*range(count), -1):
            assert _bits(stacked[i]) == _bits(trajs[i])
            # a basic index is a view of the stack
            assert np.shares_memory(ad.value(stacked[i].positions_px), ad.value(stacked.positions_px))

    @given(data=st.data())
    def test_windows_equal_per_field_indexing(self, data):
        (traj,) = data.draw(_trajectories(1))
        assert _bits(trajectory_windows(traj)) == _bits(_per_field_windows(traj))

    def test_stack_keeps_the_flags_type_and_rejects_mixed_shapes(self, cfg):
        trajs = [simulate_trajectory(cfg, _stream(i)) for i in range(2)]
        stacked = Trajectory.stack(iter(trajs))  # any iterable
        assert stacked.bounce_flags.dtype == bool
        assert _bits(stacked[:, 5]) == _bits(Trajectory.stack(t[5] for t in trajs))
        with pytest.raises(ValueError):
            Trajectory.stack([trajs[0], trajs[1][:-1]])

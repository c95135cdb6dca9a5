import numpy as np
import pytest

from balltrack.losses import (
    LossComponents,
    LossWeights,
    bce_reconstruction,
    cone_loss,
    cone_mask,
    focal_heatmap_loss,
    physics_consistency_loss,
    physics_supervised_loss,
    ramp_weight,
    total_loss,
)
from balltrack.physics import physics_refine_window, to_frame_units
from balltrack.rng import RandomStream
from balltrack.sim import Trajectory, simulate_trajectory, trajectory_windows


@pytest.fixture(scope="module")
def params(cfg):
    return to_frame_units(cfg)


def _parabola_landmarks(params, x0=100.0, y0=80.0, vx=4.0, vy=3.0):
    g = params.g_frame
    return np.array([
        (x0 + vx * t, y0 + vy * t + 0.5 * g * t * t) for t in range(3)
    ])


def _consistency(landmarks, params, **kwargs):
    """Consistency loss of landmarks against their own physics refinement."""
    return physics_consistency_loss(physics_refine_window(landmarks, params), landmarks, **kwargs)


class TestBce:
    def test_symmetric_point_is_ln2(self):
        logits = np.zeros((8, 8))
        target = np.full((8, 8), 0.5)
        assert bce_reconstruction(logits, target) == pytest.approx(np.log(2))

    def test_saturated_logits_near_zero(self):
        target = np.zeros((6, 6))
        target[2:4, 2:4] = 1.0
        logits = np.where(target > 0.5, 20.0, -20.0)
        assert bce_reconstruction(logits, target) < 1e-8

    def test_nonnegative_on_random_inputs(self, rng_np):
        for _ in range(20):
            logits = rng_np.normal(size=(5, 5)) * 4
            target = rng_np.uniform(size=(5, 5))
            assert bce_reconstruction(logits, target) >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bce_reconstruction(np.zeros((3, 3)), np.zeros((3, 4)))


class TestConeLoss:
    def test_exact_match_is_zero(self, rng_np):
        img = rng_np.uniform(size=(16, 16))
        assert cone_loss(img, img, (8, 8), 2.0) == 0.0

    def test_mask_unit_peak(self):
        mask = cone_mask((21, 21), (10, 10), 2.0)
        assert mask[10, 10] == 1.0

    def test_single_pixel_error_at_three_radii(self):
        # mask sigma is 3r, so a unit error 3r away contributes e^{-1/2}/(HW)
        r = 2.0
        h = w = 32
        recon = np.zeros((h, w))
        target = np.zeros((h, w))
        cx, cy = 10, 12
        recon[cy, cx + int(3 * r)] = 1.0
        expected = np.exp(-0.5) / (h * w)
        assert cone_loss(recon, target, (cx, cy), r) == pytest.approx(expected)


class TestFocalLoss:
    def test_exact_delta_target_nearly_zero(self):
        target = np.zeros((16, 16))
        target[5, 7] = 1.0
        assert focal_heatmap_loss(target.copy(), target) < 1e-4

    def test_uniform_half_prediction_positive_term(self):
        # the positive pixel contributes (1-0.5)^2 log 2 = 0.25 ln 2
        target = np.zeros((16, 16))
        target[5, 7] = 1.0
        pred = np.full((16, 16), 0.5)
        loss = focal_heatmap_loss(pred, target)
        neg = -np.sum((1 - target) ** 4 * 0.25 * np.log(0.5))
        assert loss == pytest.approx(0.25 * np.log(2) + neg)

    def test_nonnegative(self, rng_np):
        for _ in range(10):
            target = np.zeros((8, 8))
            target[tuple(rng_np.integers(0, 8, 2))] = 1.0
            pred = rng_np.uniform(size=(8, 8))
            assert focal_heatmap_loss(pred, target) >= 0.0

    def test_pointwise_move_toward_target_decreases_loss(self):
        target = np.zeros((8, 8))
        target[3, 3] = 1.0
        pred = np.full((8, 8), 0.4)
        base = focal_heatmap_loss(pred, target)
        up = pred.copy()
        up[3, 3] = 0.6  # positive pixel toward 1
        assert focal_heatmap_loss(up, target) < base
        down = pred.copy()
        down[6, 6] = 0.2  # background pixel toward 0
        assert focal_heatmap_loss(down, target) < base

    def test_empty_target_uses_count_floor(self):
        target = np.zeros((8, 8))
        pred = np.full((8, 8), 0.1)
        assert np.isfinite(focal_heatmap_loss(pred, target))


class TestConsistencyLoss:
    def test_zero_on_exact_parabola(self, params):
        lms = _parabola_landmarks(params)
        assert _consistency(lms, params) < 1e-12

    def test_scale_factor_maps_heatmap_coords(self, params):
        # landmarks on a 56-grid describe an image-scale parabola when
        # multiplied by 4; with a=4 the loss vanishes, with a=1 it does not
        img = _parabola_landmarks(params)
        hm56 = img / 4
        assert _consistency(4.0 * hm56, params) < 1e-12
        assert _consistency(1.0 * hm56, params) > 1e-3

    def test_increasing_in_small_perturbations(self, params):
        lms = _parabola_landmarks(params)
        losses = []
        for delta in (0.0, 0.25, 0.5, 1.0):
            bumped = lms + np.array([(0.0, 0.0), (0.0, delta), (0.0, 0.0)])
            losses.append(float(_consistency(bumped, params)))
        assert losses[0] < 1e-12
        assert losses[1] < losses[2] < losses[3]

    def test_last_frame_only_variant(self, params):
        lms = _parabola_landmarks(params)
        bumped = lms + np.array([(0.0, 0.0), (0.0, 0.5), (0.0, 0.0)])
        full = float(_consistency(bumped, params))
        last = float(_consistency(bumped, params, last_frame_only=True))
        assert full > 0
        # the bump sits on the middle frame; the final frame's refined
        # position still matches its landmark on the smooth branch
        assert last < full


class TestBatchedPhysicsLosses:
    """A batch of windows must give the per-window losses, bit for bit."""

    def test_batch_matches_single_windows(self, params):
        rng = np.random.default_rng(11)
        lms = _parabola_landmarks(params) + rng.normal(scale=0.7, size=(16, 3, 2))
        lms[:4, :, 1] += 135.0  # near the floor: bounce branch
        truth = Trajectory(lms + 0.5, rng.normal(size=(16, 3, 2)), rng.integers(0, 2, size=(16, 3)))
        win = physics_refine_window(lms, params)
        assert win.bounce_flags[:, 1:].any() and not win.bounce_flags[:, 1:].all()
        values = {
            "full": physics_consistency_loss(win, lms),
            "last": physics_consistency_loss(win, lms, last_frame_only=True),
            "sup": physics_supervised_loss(win, truth),
            "bce": physics_supervised_loss(win, truth, bounce_bce=True),
        }
        assert all(v.shape == (16,) for v in values.values())
        for k in range(16):
            one = physics_refine_window(lms[k], params)
            assert values["full"][k] == physics_consistency_loss(one, lms[k])
            assert values["last"][k] == physics_consistency_loss(one, lms[k], last_frame_only=True)
            one_truth = truth[k]
            assert values["sup"][k] == physics_supervised_loss(one, one_truth)
            assert values["bce"][k] == physics_supervised_loss(one, one_truth, bounce_bce=True)

    def test_image_losses_reduce_per_map(self, rng_np):
        maps = rng_np.uniform(0.05, 0.95, size=(5, 12, 12))
        target = rng_np.uniform(size=(5, 12, 12))
        target[:, 4, 4] = 1.0
        for loss in (bce_reconstruction, focal_heatmap_loss,
                     lambda a, b: cone_loss(a, b, (6, 6), 2.0)):
            batch = loss(maps, target)
            assert np.array_equal(batch, [loss(m, t) for m, t in zip(maps, target)])


class TestSupervisedLoss:
    def test_perfect_prediction_zero(self, params):
        lms = _parabola_landmarks(params)
        win = physics_refine_window(lms, params)
        pos = np.array(win.positions_px)
        vel = np.array(win.velocities_fu)
        b = np.array([0.0, 0.0, 0.0])
        assert physics_supervised_loss(win, Trajectory(pos, vel, b)) < 1e-12

    def test_single_wrong_bounce_costs_a_third_of_weight(self, params):
        lms = _parabola_landmarks(params)
        win = physics_refine_window(lms, params)
        pos = np.array(win.positions_px)
        vel = np.array(win.velocities_fu)
        b = np.array([0.0, 0.0, 1.0])  # claim a bounce the window lacks
        assert physics_supervised_loss(win, Trajectory(pos, vel, b)) == pytest.approx(0.01 / 3)

    def test_unit_position_offset_gives_unit_term(self, params):
        lms = _parabola_landmarks(params)
        win = physics_refine_window(lms, params)
        pos = np.array(win.positions_px) + 1.0
        vel = np.array(win.velocities_fu)
        b = np.zeros(3)
        assert physics_supervised_loss(win, Trajectory(pos, vel, b)) == pytest.approx(1.0)

    def test_bce_bounce_variant_finite_and_ordered(self, params):
        lms = _parabola_landmarks(params)
        win = physics_refine_window(lms, params)
        pos = np.array(win.positions_px)
        vel = np.array(win.velocities_fu)
        right = physics_supervised_loss(win, Trajectory(pos, vel, np.zeros(3)), bounce_bce=True)
        wrong = physics_supervised_loss(win, Trajectory(pos, vel, np.ones(3)), bounce_bce=True)
        assert np.isfinite(right) and np.isfinite(wrong)
        assert wrong > right

    def test_refinement_of_bounce_free_simulator_windows_costs_nothing(self, cfg, params):
        # the supervised loss of the refinement against the simulator's own
        # windows, velocities included, on selfcheck's 20 sequences: windows
        # with no bounce, neither in the truth nor flagged by the refinement
        trajs = (simulate_trajectory(cfg, RandomStream.from_seed(cfg.seed, "selfcheck", i))
                 for i in range(20))
        truth = trajectory_windows(Trajectory.stack(trajs))
        win = physics_refine_window(truth.positions_px, params)
        loss = physics_supervised_loss(win, truth)  # one value per window
        quiet = ~truth.bounce_flags.any(axis=-1)
        kept = quiet & ~win.bounce_flags.any(axis=-1)
        assert (quiet.sum(), kept.sum()) == (578, 577)
        assert np.max(loss[kept]) < 1e-12


class TestRamp:
    def test_floor_at_epoch_zero(self):
        assert ramp_weight(0, 0.01, 10) == 0.01

    def test_saturates_at_ramp_end(self):
        assert ramp_weight(10, 0.01, 10) == 1.0
        assert ramp_weight(50, 0.01, 10) == 1.0

    def test_midpoint_value(self):
        assert ramp_weight(5, 0.01, 10) == pytest.approx(0.505)

    def test_monotone_and_bounded(self):
        vals = [ramp_weight(e, 0.001, 20) for e in range(40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.001 <= v <= 1.0 for v in vals)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(consistency_w_min=0.0)
        with pytest.raises(ValueError):
            LossWeights(supervised_ramp_epochs=0)
        with pytest.raises(ValueError):
            ramp_weight(-1, 0.01, 10)

    def test_bounce_weight_is_not_a_schedule_field(self):
        # the bounce weight is an argument of physics_supervised_loss only
        with pytest.raises(TypeError):
            LossWeights(bounce_weight=0.5)


class TestTotalLoss:
    def test_all_zero_components(self):
        assert total_loss(LossComponents(), epoch=0) == 0.0

    def test_consistency_ramped_at_epoch_zero(self):
        comp = LossComponents(physics_consistency=1.0)
        assert total_loss(comp, epoch=0) == pytest.approx(0.01)

    def test_supervised_saturated(self):
        comp = LossComponents(physics_supervised=1.0)
        assert total_loss(comp, epoch=20) == pytest.approx(1.0)
        assert total_loss(comp, epoch=35) == pytest.approx(1.0)

    def test_unramped_terms_pass_through(self):
        comp = LossComponents(reconstruction=0.5, cone=0.25, heatmap=0.125)
        assert total_loss(comp, epoch=0) == pytest.approx(0.875)

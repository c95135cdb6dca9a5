import numpy as np
import pytest
from scipy.signal import fftconvolve

from balltrack.physics import physics_refine_window, to_frame_units
from balltrack.rng import RandomStream
from balltrack.sim import SimConfig, simulate_trajectory, trajectory_windows
from balltrack.tracker import (
    METRICS,
    _detector_frames,
    disk_template,
    downscale_heatmap,
    evaluate,
    evaluate_sequences,
    metrics_from_csv,
    metrics_to_csv,
    ncc_heatmap,
    track_sequence,
)
from balltrack.video import generate_sequence, render_frame, split_stream


@pytest.fixture(scope="module")
def clean_seq(cfg):
    return generate_sequence(cfg, split_stream(cfg, "test", 0))


class TestTemplate:
    def test_thirteen_interior_ones(self):
        tmpl = disk_template(2.0)
        assert tmpl.shape == (7, 7)
        # before normalization the disk holds 13 lattice points
        assert int((tmpl > 0).sum()) == 13

    def test_zero_mean(self):
        assert disk_template(2.0).mean() == pytest.approx(0.0, abs=1e-15)

    def test_four_fold_symmetry(self):
        tmpl = disk_template(2.0)
        assert np.allclose(tmpl, np.rot90(tmpl))
        assert np.allclose(tmpl, tmpl[::-1])

    def test_radius_below_one_rejected(self):
        with pytest.raises(ValueError):
            disk_template(0.5)


class TestNcc:
    def test_constant_frame_all_zero(self):
        tmpl = disk_template(2.0)
        assert not ncc_heatmap(np.full((64, 64), 3.3), tmpl).any()

    def test_clean_peak_attains_max_at_rounded_center(self, cfg):
        # the rounded ground-truth center always carries the maximal
        # response on clean frames; at sub-pixel phases near .5 the rendered
        # disk can tie with a 1 px shift, resolved by the flat-index rule
        tmpl = disk_template(cfg.radius_px)
        rng = RandomStream.from_seed(5, "ncc-argmax")
        exact = 0
        for _ in range(60):
            cx = rng.uniform(6, 217)
            cy = rng.uniform(6, 217)
            hm = ncc_heatmap(render_frame((cx, cy), cfg), tmpl)
            assert hm[round(cy), round(cx)] >= hm.max() - 1e-9
            y, x = divmod(int(np.argmax(hm)), hm.shape[1])
            exact += int((x, y) == (round(cx), round(cy)))
            assert abs(x - cx) < 1.0 and abs(y - cy) < 1.0
        assert exact > 45  # strict equality away from tie phases

    def test_clean_argmax_exact_at_integer_center(self, cfg):
        tmpl = disk_template(cfg.radius_px)
        hm = ncc_heatmap(render_frame((100.0, 80.0), cfg), tmpl)
        assert divmod(int(np.argmax(hm)), hm.shape[1]) == (80, 100)

    def test_clean_argmax_within_one_pixel(self, clean_seq, cfg):
        tmpl = disk_template(cfg.radius_px)
        margin = tmpl.shape[0] // 2
        for t in range(0, len(clean_seq.frames), 5):
            gt = clean_seq.trajectory.positions_px[t]
            if not (margin + 1 <= gt[0] <= 223 - margin - 1):
                continue
            if not (margin + 1 <= gt[1] <= 223 - margin - 1):
                continue
            hm = ncc_heatmap(clean_seq.frames[t].astype(float), tmpl)
            y, x = divmod(int(np.argmax(hm)), hm.shape[1])
            assert abs(x - gt[0]) < 1.0 and abs(y - gt[1]) < 1.0

    def test_true_center_beats_three_px_offset(self, cfg):
        tmpl = disk_template(cfg.radius_px)
        hm = ncc_heatmap(render_frame((100.0, 80.0), cfg), tmpl)
        assert hm[80, 100] > hm[80, 103]
        assert hm[80, 100] > hm[83, 100]

    def test_border_pixels_zero(self, cfg):
        tmpl = disk_template(cfg.radius_px)
        hm = ncc_heatmap(render_frame((100.0, 80.0), cfg), tmpl)
        m = tmpl.shape[0] // 2
        assert not hm[:m].any() and not hm[-m:].any()
        assert not hm[:, :m].any() and not hm[:, -m:].any()

    def test_nonnegative(self, cfg, rng_np):
        tmpl = disk_template(cfg.radius_px)
        hm = ncc_heatmap(rng_np.normal(size=(64, 64)), tmpl)
        assert hm.min() >= 0.0


def _ncc_reference(frame, template):
    """The per-frame definition by three ``fftconvolve`` calls."""
    frame = np.asarray(frame, dtype=np.float64)
    t0 = template - template.mean()
    t_norm = np.sqrt(np.sum(t0 * t0))
    n = template.size
    num = fftconvolve(frame, t0[::-1, ::-1], mode="same")
    ones = np.ones_like(template)
    s1 = fftconvolve(frame, ones, mode="same")
    s2 = fftconvolve(frame * frame, ones, mode="same")
    var = np.maximum(s2 - s1 * s1 / n, 0.0)
    den = t_norm * np.sqrt(var)
    cutoff = max(1e-9, 1e-4 * float(den.max()))
    out = np.where(den > cutoff, num / (den + 1e-12), 0.0)
    margin = template.shape[0] // 2
    out[:margin, :] = 0.0
    out[-margin:, :] = 0.0
    out[:, :margin] = 0.0
    out[:, -margin:] = 0.0
    return np.maximum(out, 0.0)


class TestNccStack:
    """A stack shares the template spectra; every frame keeps its bits."""

    @staticmethod
    def _assert_bitwise(stack, template):
        got = ncc_heatmap(stack, template)
        assert got.shape == stack.shape
        for frame, hm in zip(stack, got):
            assert hm.tobytes() == _ncc_reference(frame, template).tobytes()

    def test_clean_frames_at_tie_phases(self, cfg):
        centers = [(100.5, 80.5), (60.5, 120.0), (33.0, 47.5), (150.25, 150.75), (100.0, 80.0)]
        stack = np.array([render_frame(c, cfg) for c in centers])
        self._assert_bitwise(stack, disk_template(cfg.radius_px))

    @pytest.mark.parametrize("temporal_mean", [False, True])
    def test_textured_frames(self, temporal_mean):
        noisy = SimConfig(noise_sigma=1.0, frames_per_video=5)
        seq = generate_sequence(noisy, split_stream(noisy, "ncc-stack", 0))
        stack = _detector_frames(seq.frames, temporal_mean)
        self._assert_bitwise(stack, disk_template(noisy.radius_px))

    def test_constant_frame(self):
        stack = np.full((2, 64, 64), 3.3)
        self._assert_bitwise(stack, disk_template(2.0))

    def test_non_square_frames(self, rng_np):
        stack = rng_np.normal(size=(3, 48, 80))
        stack[1, 20:25, 40:45] += 4.0
        self._assert_bitwise(stack, disk_template(2.0))

    def test_single_frame_keeps_its_shape(self, rng_np):
        frame = rng_np.normal(size=(48, 80))
        hm = ncc_heatmap(frame, disk_template(3.0))
        assert hm.shape == (48, 80)
        assert hm.tobytes() == _ncc_reference(frame, disk_template(3.0)).tobytes()


class TestPooling:
    def test_uniform_pools_to_uniform(self):
        hm = np.full((224, 224), 0.7)
        h112, h56 = downscale_heatmap(hm)
        assert np.allclose(h112, 0.7) and np.allclose(h56, 0.7)
        assert h112.shape == (112, 112) and h56.shape == (56, 56)

    def test_mean_pooling_mass_ratio(self, rng_np):
        hm = rng_np.uniform(size=(224, 224))
        h112, h56 = downscale_heatmap(hm)
        assert h112.sum() == pytest.approx(hm.sum() / 4)
        assert h56.sum() == pytest.approx(hm.sum() / 16)

    def test_peak_maps_to_floored_coordinates(self):
        hm = np.zeros((224, 224))
        hm[101, 57] = 1.0
        h112, h56 = downscale_heatmap(hm)
        assert np.unravel_index(np.argmax(h112), h112.shape) == (50, 28)
        assert np.unravel_index(np.argmax(h56), h56.shape) == (25, 14)


class TestStacks:
    @pytest.mark.parametrize("k", (2, 4))
    def test_strided_pooling_is_bitwise_reshape_mean(self, rng_np, k):
        stack = rng_np.uniform(size=(6, 224, 224)) * (rng_np.random((6, 224, 224)) > 0.3)
        pooled = downscale_heatmap(stack)[k // 4]
        reference = stack.reshape(6, 224 // k, k, 224 // k, k).mean(axis=(-3, -1))
        assert pooled.tobytes() == reference.tobytes()

    def test_pooling_a_stack_equals_pooling_each_frame(self, rng_np):
        stack = rng_np.uniform(size=(3, 224, 224))
        h112, h56 = downscale_heatmap(stack)
        for t in range(3):
            f112, f56 = downscale_heatmap(stack[t])
            assert h112[t].tobytes() == f112.tobytes() and h56[t].tobytes() == f56.tobytes()

    def test_temporal_mean_matches_per_frame_definition(self, rng_np):
        frames = rng_np.normal(size=(5, 16, 16)).astype(np.float32)
        out = _detector_frames(frames, temporal_mean=True)
        work = frames.astype(np.float64)
        for t in range(5):
            lo, hi = max(0, t - 1), min(5, t + 2)
            ref = np.maximum(work[t] - work[lo:hi].mean(axis=0), 0.0)
            assert out[t].tobytes() == ref.tobytes()


class TestTrackSequence:
    def test_window_count(self, clean_seq, cfg):
        preds = track_sequence(clean_seq, cfg)
        assert set(preds) == {56, 112, 224}
        for s in preds:
            assert len(preds[s]["B"]) == cfg.frames_per_video - 2 == 38

    def test_too_short_sequence_rejected(self, cfg, clean_seq):
        import dataclasses

        short = dataclasses.replace(clean_seq, frames=clean_seq.frames[:2])
        with pytest.raises(ValueError):
            track_sequence(short, cfg)

    def test_indivisible_image_size_rejected(self):
        from balltrack.sim import SimConfig
        from balltrack.video import generate_sequence, split_stream

        cfg = SimConfig(image_size=226, frames_per_video=4)
        seq = generate_sequence(cfg, split_stream(cfg, "odd", 0))
        with pytest.raises(ValueError):
            track_sequence(seq, cfg)

    def test_windows_independent_and_deterministic(self, clean_seq, cfg):
        a = track_sequence(clean_seq, cfg)
        b = track_sequence(clean_seq, cfg)
        for s in a:
            assert np.array_equal(a[s]["P"], b[s]["P"])
            assert np.array_equal(a[s]["V"], b[s]["V"])
            assert np.array_equal(a[s]["bounce"], b[s]["bounce"])

    def test_clean_interior_windows_track_within_one_px(self, cfg):
        # interior windows: bounce-free and clear of the detector border
        # (the correlator zeroes responses within the template margin, so
        # near-edge landmarks are biased by construction)
        from balltrack.video import generate_sequence, split_stream

        checked = 0
        for i in range(6):
            seq = generate_sequence(cfg, split_stream(cfg, "test", i))
            preds = track_sequence(seq, cfg)
            gt = seq.trajectory
            for t in range(1, len(seq.frames) - 1):
                pos = gt.positions_px[t - 1 : t + 2]
                if gt.bounce_flags[t] or gt.bounce_flags[t + 1]:
                    continue
                if pos.min() < 8 or pos.max() > 215:
                    continue
                p_physics = preds[224]["P"][t - 1]
                err = np.abs(p_physics[1] - gt.positions_px[t]).sum()
                assert err < 1.0
                checked += 1
        assert checked > 100

    def test_positions_reported_at_image_scale(self, clean_seq, cfg):
        preds = track_sequence(clean_seq, cfg)
        gt = clean_seq.trajectory.positions_px
        for s in (56, 112, 224):
            mid = preds[s]["B"][:, 1]
            err = np.abs(mid - gt[1:-1]).mean()
            assert err < 6.0  # image-scale pixels at every scale


def _exact_predictions(traj, params):
    """Window arrays built from ground-truth landmarks, one window at a time."""
    windows = []
    for _, pos, _, _ in trajectory_windows(traj):
        win = physics_refine_window(pos, params)
        windows.append((pos.copy(), np.round(pos), win.positions, win.velocities, win.bounced))
    return {224: dict(zip(("B", "H", "P", "V", "bounce"), map(np.array, zip(*windows))))}


class TestEvaluate:
    def test_ground_truth_inputs_give_zero_b_metric(self, cfg):
        params = to_frame_units(cfg)
        traj = simulate_trajectory(cfg, RandomStream.from_seed(1, "eval", 0))
        table = evaluate(_exact_predictions(traj, params), traj)
        assert table["B224"] == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_gives_unit_position_error(self, cfg):
        params = to_frame_units(cfg)
        traj = simulate_trajectory(cfg, RandomStream.from_seed(1, "eval", 1))
        preds = _exact_predictions(traj, params)
        preds[224]["B"] = preds[224]["B"] + np.array([1.0, 0.0])
        table = evaluate(preds, traj)
        assert table["B224"] == pytest.approx(1.0, abs=1e-12)

    def test_velocity_metric_near_zero_on_bounce_free_sequence(self, cfg):
        params = to_frame_units(cfg)
        # hunt for a sequence with no bounces at all
        traj = None
        for i in range(200):
            cand = simulate_trajectory(cfg, RandomStream.from_seed(2, "eval-v", i))
            if not cand.bounce_flags.any() and cand.positions_px[:, 1].max() < 221 - 0.7848:
                traj = cand
                break
        assert traj is not None
        table = evaluate(_exact_predictions(traj, params), traj)
        assert table["V224"] < 1e-6
        assert table["P224"] < 1e-6

    def test_window_count_mismatch_rejected(self, cfg):
        params = to_frame_units(cfg)
        traj = simulate_trajectory(cfg, RandomStream.from_seed(1, "eval", 2))
        preds = _exact_predictions(traj, params)
        preds[224] = {key: w[:-1] for key, w in preds[224].items()}
        with pytest.raises(ValueError):
            evaluate(preds, traj)


class TestMetricsCsv:
    def test_round_trip(self, cfg, clean_seq):
        preds = track_sequence(clean_seq, cfg)
        table = evaluate_sequences([evaluate(preds, clean_seq.trajectory)])
        text = metrics_to_csv(table, "A0B0C0D0E0F0", 2)
        rows = metrics_from_csv(text)
        assert len(rows) == len(METRICS) == 15
        for config, rep, metric, value in rows:
            assert config == "A0B0C0D0E0F0" and rep == 2
            assert value == table.values[metric]

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            metrics_from_csv("a,b,c\n1,2,3\n")

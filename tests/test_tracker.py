import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

import balltrack
from balltrack.heatmaps import expectation_for_scale, hard_argmax
from balltrack.physics import physics_refine_window, to_frame_units
from balltrack.rng import RandomStream
from balltrack.sim import SimConfig, Trajectory, simulate_trajectory, trajectory_windows, window_index
from balltrack.tracker import (
    METRICS,
    SCALES,
    _detector_frames,
    _nonzero_rows,
    _StackRows,
    disk_template,
    downscale_heatmap,
    evaluate,
    metrics_columns_from_csv,
    metrics_from_csv,
    metrics_to_csv,
    ncc_heatmap,
    track_sequence,
    track_split,
)
from balltrack.video import (VideoSequence, generate_sequence, generate_split, read_dataset, render_frame,
                             split_stream, write_dataset)


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

    def test_rendered_disk_at_the_grid_center(self):
        # the renderer tests only the disk's bounding box; the template keeps
        # the bits of the test over its whole grid
        for radius in np.linspace(1.0, 9.0, 160):
            size = 2 * int(round(radius)) + 3
            ii, jj = np.indices((size, size), dtype=float)
            c = (size - 1) / 2.0
            disk = ((jj - c) ** 2 + (ii - c) ** 2 <= radius * radius).astype(float)
            assert disk_template(radius).tobytes() == (disk - disk.mean()).tobytes()

    @pytest.mark.parametrize("radius, digest", [
        (1, "179d1c6bfca012e1348c71f13aad673cb62ab403955d894bf57fea4e382aaa05"),
        (1.5, "a3e80127049386207e1e4eacf767bcf5bdb1c9bb8751f94f74bd5e4d5585765c"),
        (2, "db0fff585c9a3455fb27df0e43437dafda515a04d835a09eb93e870ad651837c"),
        (3.3, "a22d445a20a7c248c9e056b8d9ea71d4e5d2930f387a31e245f75d637e8a9479"),
        (7, "9e83b36f510140a586928ec223e25b6ebe0b0bbf31d25a2e6ae2a8e36f72fb52"),
    ])
    def test_bytes_match_recorded_digests(self, radius, digest):
        assert hashlib.sha256(disk_template(radius).tobytes()).hexdigest() == digest


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


def _live_mask(frame, template):
    """Rows holding a window above the variance cutoff, by ``_ncc_reference``'s arithmetic."""
    frame = np.asarray(frame, dtype=np.float64)
    t0 = template - template.mean()
    ones = np.ones_like(template)
    s1 = fftconvolve(frame, ones, mode="same")
    s2 = fftconvolve(frame * frame, ones, mode="same")
    den = np.sqrt(np.sum(t0 * t0)) * np.sqrt(np.maximum(s2 - s1 * s1 / template.size, 0.0))
    return (den > max(1e-9, 1e-4 * float(den.max()))).any(axis=-1)


def _live_rows(frame, template):
    return int(np.count_nonzero(_live_mask(frame, template)))


def _dense(stack):
    """The float64 (T, H, W) stack of which ``stack`` holds the nonzero rows."""
    out = np.zeros(stack.shape)
    out[stack.frame, stack.row] = stack.values
    return out


@st.composite
def _sparse_stacks(draw):
    """1-3 mostly empty frames: disks and spikes anywhere, spikes or disks
    centered only in rows 0, 1, H-2, H-1 and the rest of the widest template
    margin (4), so the window sums' reach meets the frame's edge, one nonzero
    row, all zeros or a constant; values 1 or arbitrary."""
    h, w = draw(st.sampled_from([(16, 16), (24, 40), (48, 80)]))
    values = st.one_of(st.just(1.0), st.floats(-4.0, 4.0))
    frames = []
    for _ in range(draw(st.integers(1, 3))):
        frame = np.zeros((h, w))
        kind = draw(st.sampled_from(["marks", "margin", "edge", "row", "zero", "constant"]))
        if kind == "constant":
            frame[:] = draw(values)
        elif kind == "row":
            frame[draw(st.integers(0, h - 1))] = draw(st.lists(values, min_size=w, max_size=w))
        elif kind != "zero":
            edge = kind != "marks"
            rows = st.sampled_from([0, 1, 2, 3, h - 4, h - 3, h - 2, h - 1]) if edge else st.integers(0, h - 1)
            ii, jj = np.ogrid[:h, :w]
            for _ in range(draw(st.integers(1, 4))):
                r, c = draw(rows), draw(st.integers(0, w - 1))
                size = 0 if kind == "margin" else draw(st.integers(0, 3))
                frame[(ii - r) ** 2 + (jj - c) ** 2 <= size * size] = draw(values)
        frames.append(frame)
    return np.array(frames)


class TestNccStack:
    """A stack shares the template spectra; every frame keeps its bits."""

    @staticmethod
    def _assert_bitwise(stack, template):
        got = ncc_heatmap(stack, template)
        if isinstance(stack, _StackRows):
            got = got.dense()
        assert got.shape == stack.shape
        for frame, hm in zip(_dense(stack) if isinstance(stack, _StackRows) else stack, got):
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

    def test_mixed_stack(self, cfg):
        # 0/1, textured, all-ones and empty frames in one stack each keep their bits
        noisy = SimConfig(noise_sigma=1.0, frames_per_video=3)
        textured = generate_sequence(noisy, split_stream(noisy, "ncc-stack", 1)).frames[1]
        stack = np.array([render_frame((100.5, 80.5), cfg), textured, np.ones((224, 224)),
                          np.zeros((224, 224)), render_frame((33.0, 47.5), cfg)])
        self._assert_bitwise(stack, disk_template(cfg.radius_px))

    @staticmethod
    def _transforms(monkeypatch, stack, template):
        """ncc_heatmap of ``stack`` and the length of the first axis of each
        scipy.fft transform's input, ``{name: [length per call]}``: the rows of
        a row pass, the spectrum columns of a column pass (each column is a
        row of its transposed input) and the two images of the template pass."""
        # the tracker imports the transforms from scipy.fft when it runs, so it
        # calls these wrappers
        calls = {name: [] for name in scipy.fft.__all__
                 if "fft" in name and not name.endswith(("freq", "shift", "fast_len"))}
        for name in calls:
            def counted(x, *args, _name=name, _real=getattr(scipy.fft, name), **kwargs):
                calls[_name].append(len(x))
                return _real(x, *args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)
        hm = ncc_heatmap(stack, template)
        monkeypatch.undo()
        return hm, calls

    @pytest.mark.parametrize("n_binary, n_textured, sparse", [(1, 0, False), (0, 1, False), (3, 2, False),
                                                              (2, 2, True)], ids=["1-0", "0-1", "3-2", "2-2-sparse"])
    def test_transforms_per_frame(self, cfg, rng_np, monkeypatch, n_binary, n_textured, sparse):
        template = disk_template(cfg.radius_px)
        # 13-pixel disks centered on a pixel: 5 nonzero rows each
        binary = [render_frame((60.0 + 20 * k, 120.0), cfg) for k in range(n_binary)]
        if sparse:  # disks of 0.5, not their own square
            textured = [0.5 * render_frame((50.0 + 30 * k, 40.0), cfg) for k in range(n_textured)]
        else:
            textured = [rng_np.normal(size=(224, 224)) for _ in range(n_textured)]

        cols = 121  # Q//2+1 spectrum columns for Q = next_fast_len(224 + 7 - 1) = 240
        # the flipped template and the all-ones window: one row pass and one
        # column pass over both
        want = {"rfft": [2], "fft": [2], "ifft": [], "irfft": []}
        for frame in binary:
            # a 0/1 frame: r2c of its nonzero rows, one sum map on the 11 rows the
            # disk's 5 reach (the template's 3 either side), and the numerator on
            # the live rows, the same 11
            assert np.count_nonzero(frame.any(axis=-1)) == 5
            assert _live_rows(frame, template) == 11
        # (frame, textured, rows reached)
        frames = [(f, False, 11) for f in binary] + [(f, True, 11 if sparse else 224) for f in textured]
        # each row pass runs once per batch, on the rows of all its frames: the
        # 0/1 frames and the sparse textured ones share one batch, and a dense
        # frame, which reaches every row, is a batch of its own
        if sparse:
            batches = [frames]
        else:
            batches = ([frames[:n_binary]] if n_binary else []) + [[f] for f in frames[n_binary:]]
        for batch in batches:
            # a batch that is not all 0/1 squares all its rows, and each of its
            # frames runs the sum-of-squares column pass
            squared = any(tex for _, tex, _ in batch)
            for _ in batch:  # each frame's column passes run on their own
                want["fft"] += [cols] * (1 + squared)
                want["ifft"] += [cols] * (2 + squared)
            want["rfft"] += [sum(np.count_nonzero(f.any(axis=-1)) for f, _, _ in batch)] * (1 + squared)
            want["irfft"] += [sum(reach for _, _, reach in batch)] * (1 + squared)
            want["irfft"] += [sum(_live_rows(f, template) for f, _, _ in batch)]
        stack = np.array(binary + textured)
        hm, calls = self._transforms(monkeypatch, stack, template)
        assert {name: rows for name, rows in calls.items() if rows or name in want} == want
        assert not calls["rfft2"]
        for frame, got in zip(stack, hm):
            assert got.tobytes() == _ncc_reference(frame, template).tobytes()

    def test_transforms_of_a_sparse_textured_frame(self, cfg, monkeypatch):
        # a disk of 0.5: not its own square, so both window sums run, each on the 11 rows reached
        template = disk_template(cfg.radius_px)
        frame = 0.5 * render_frame((100.0, 80.0), cfg)
        _, calls = self._transforms(monkeypatch, frame[None], template)
        assert calls["rfft"] == [2, 5, 5]  # the template pass, then the frame and its square
        assert calls["irfft"] == [11, 11, _live_rows(frame, template)]
        assert not calls["rfft2"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    def test_non_finite_bound_sweeps_every_row(self, cfg, monkeypatch, value):
        # a NaN or infinite pixel, or one whose square overflows, makes the residue
        # bound non-finite: the frame runs again with its window sums on all 224
        # rows, and the map is the full sweep's; a clean frame in its batch keeps
        # its 11 rows
        template = disk_template(cfg.radius_px)
        odd = render_frame((100.0, 80.0), cfg).astype(np.float64)
        odd[80, 100] = value
        stack = np.array([odd, render_frame((60.0, 120.0), cfg)])
        with np.errstate(invalid="ignore", over="ignore"):
            hm, calls = self._transforms(monkeypatch, stack, template)
            want = [_ncc_reference(frame, template) for frame in stack]
            squared = (odd * odd).tobytes() != odd.tobytes()  # not a 0/1 frame: its sum of squares runs
            live = _live_rows(odd, template)
        # the batch: both sums (11 + 11 rows), both sums of squares if the odd
        # frame is not 0/1, and the clean frame's numerator; then the odd
        # frame's sweep of every row
        assert calls["irfft"] == [22] + [22] * squared + [11] + [224] + [224] * squared + [live]
        for got, ref in zip(hm, want):
            assert got.tobytes() == ref.tobytes()
        # given as nonzero rows, the clean frame alone gets 16-row windows; the
        # sweep widens every window to its whole map, keeping the clean frame's rows
        assert ncc_heatmap(_nonzero_rows(stack[1:]), template).windows.shape == (1, 16, 224)
        with np.errstate(invalid="ignore", over="ignore"):
            bands = ncc_heatmap(_nonzero_rows(stack), template)
        assert bands.windows.shape == stack.shape and not bands.first.any()
        assert bands.windows.tobytes() == hm.tobytes()

    def test_batch_boundaries(self, rng_np):
        # 48-row frames, where a disk reaches 11 rows of a 7-row template's window
        # sums: 0/1 disks, sparse textured frames (disks of 0.5, three noise rows),
        # empty frames, a dense frame and a frame with a NaN pixel (its residue
        # bound fails, so it runs again on every row) in the middle of a batch
        small = SimConfig(image_size=48, v_max=1.0)
        template = disk_template(small.radius_px)
        disk = [render_frame(c, small).astype(np.float64) for c in
                [(10.0, 10.0), (30.0, 20.0), (20.5, 30.5), (15.0, 25.0), (40.0, 45.0), (5.0, 2.0), (24.0, 12.5)]]
        rows = np.zeros((48, 48))
        rows[20:23] = rng_np.normal(size=(3, 48))
        odd = disk[3].copy()
        odd[25, 15] = np.nan
        stack = np.array([disk[0], 0.5 * disk[1], np.zeros((48, 48)), odd, disk[2], rows,
                          rng_np.normal(size=(48, 48)), disk[5], 0.5 * disk[4], disk[6], np.zeros((48, 48)),
                          rows[::-1], disk[0], 0.5 * disk[2], disk[4], disk[1], 0.5 * disk[6]])
        nonzero = [np.flatnonzero(f.any(axis=-1)) for f in stack]
        reached = sum(min(r[-1] + 4, 48) - max(r[0] - 3, 0) for r in nonzero if len(r))
        assert reached > 3 * 48  # batches of at most 48 reached rows: at least four of them
        with np.errstate(invalid="ignore"):
            got = ncc_heatmap(stack, template)
            bands = ncc_heatmap(_nonzero_rows(stack), template)
            want = [_ncc_reference(frame, template) for frame in stack]
        for k, (hm, ref) in enumerate(zip(got, want)):
            assert hm.tobytes() == ref.tobytes(), k
        # the NaN frame is swept, so every window became its whole map
        assert bands.windows.tobytes() == got.tobytes() and not bands.first.any() and bands.height == 48

    @settings(max_examples=150, deadline=None)
    @given(stack=_sparse_stacks(), radius=st.sampled_from([2.0, 3.0]))
    def test_sparse_frames_match_reference(self, stack, radius):
        self._assert_bitwise(stack, disk_template(radius))

    def test_single_frame_keeps_its_shape(self, rng_np):
        frame = rng_np.normal(size=(48, 80))
        hm = ncc_heatmap(frame, disk_template(3.0))
        assert hm.shape == (48, 80)
        assert hm.tobytes() == _ncc_reference(frame, disk_template(3.0)).tobytes()


def _reference_temporal_mean(frames):
    """The temporal mean over every row of every frame."""
    work = np.asarray(frames, dtype=np.float64)
    out = work.copy()
    out[1:] += work[:-1]
    out[:-1] += work[1:]
    out /= np.r_[2.0, np.full(len(work) - 2, 3.0), 2.0][:, None, None]
    return np.maximum(work - out, 0.0)


def _reference_pool(hm, k):
    *lead, h, w = hm.shape
    return hm.reshape(*lead, h // k, k, w // k, k).mean(axis=(-3, -1))


def _reference_argmax(hm):
    *lead, h, w = hm.shape
    k = np.argmax(hm.reshape(*lead, h * w), axis=-1)
    return np.stack([k % w, k // w], axis=-1)


def _reference_track(frames, cfg, temporal_mean):
    """``track_sequence`` with every stage run over whole maps."""
    work = _reference_temporal_mean(frames) if temporal_mean else frames
    template = disk_template(cfg.radius_px)
    hm224 = np.array([_ncc_reference(frame, template) for frame in work])
    windows = window_index(len(frames))
    predictions = {}
    for s, hm in ((56, _reference_pool(hm224, 4)), (112, _reference_pool(hm224, 2)), (224, hm224)):
        a = 224 / s
        b = a * expectation_for_scale(s)(hm)[windows]
        win = physics_refine_window(b, to_frame_units(cfg))
        predictions[s] = {"B": b, "H": a * _reference_argmax(hm)[windows], "P": win.positions_px,
                          "V": win.velocities_fu, "bounce": win.bounce_flags}
    return predictions


@st.composite
def _detector_stacks(draw):
    """float32 frames and their config: per frame a disk anywhere, a disk in
    the template margin rows (so the windows, in whole 4x4 blocks, reach row
    0 or row H-1), a disk centered on row 0, 1, H-2 or H-1 scaled by -1, 1/2
    or 1 (a dark disk correlates positively at the rows where the window sums'
    reach ends), no disk, or dense noise; over zeros or one static noise
    image, as the temporal mean expects.  A 7-row template makes a disk reach
    up to 11 rows, so most stacks of two or more frames holding some nonzero
    row fill more than one of the correlator's batches."""
    size, n = draw(st.sampled_from([16, 24, 32])), draw(st.integers(3, 6))
    cfg = SimConfig(image_size=size, frames_per_video=n, v_max=1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    background = rng.normal(size=(size, size)) if draw(st.booleans()) else np.zeros((size, size))
    frames = []
    for _ in range(n):
        kind = draw(st.sampled_from(["disk", "margin", "edge", "none", "dense"]))
        if kind == "dense":
            frames.append(rng.normal(size=(size, size)))
            continue
        frame = np.zeros((size, size))
        if kind == "edge":
            y = draw(st.sampled_from([0.0, 1.0, size - 2.0, size - 1.0]))
            frame = draw(st.sampled_from([-1.0, 0.5, 1.0])) * render_frame((draw(st.floats(0, size - 1)), y), cfg)
        elif kind != "none":
            rows = [0, 1, 2, 3, size - 4, size - 3, size - 2, size - 1]
            y = draw(st.sampled_from(rows)) if kind == "margin" else draw(st.floats(0, size - 1))
            frame = render_frame((draw(st.floats(0, size - 1)), y), cfg)
        frames.append(frame + background)
    return np.array(frames, dtype=np.float32), cfg


class TestBands:
    """Every stage that reads only each frame's row window has the bits
    of the same stage over whole frames."""

    @settings(max_examples=60, deadline=None)
    @given(case=_detector_stacks(), temporal_mean=st.booleans())
    def test_banded_stages_keep_the_bits(self, case, temporal_mean):
        frames, cfg = case
        rows = _detector_frames(frames, temporal_mean)
        work = _dense(rows)
        want = _reference_temporal_mean(frames) if temporal_mean else frames.astype(np.float64)
        assert work.tobytes() == want.tobytes()
        template = disk_template(cfg.radius_px)
        bands = ncc_heatmap(rows, template)
        hm = bands.dense()
        assert hm.tobytes() == np.array([_ncc_reference(f, template) for f in work]).tobytes()
        assert bands.windows.shape[1] % 4 == 0 and not (bands.first % 4).any()  # whole 4x4 blocks
        for k, m in zip((4, 2, 1), downscale_heatmap(bands).values()):
            assert m.dense().tobytes() == _reference_pool(hm, k).tobytes()
            assert hard_argmax(m).tolist() == _reference_argmax(m.dense()).tolist()

        got = track_sequence(VideoSequence(frames, trajectory=None), cfg, temporal_mean)
        want = _reference_track(frames, cfg, temporal_mean)
        for s in want:
            for key in want[s]:
                assert got[s][key].tobytes() == want[s][key].tobytes(), (s, key)

    def test_empty_and_dense_stacks(self):
        cfg = SimConfig(image_size=32, frames_per_video=3)
        for frames in (np.zeros((3, 32, 32), np.float32),
                       np.random.default_rng(5).normal(size=(3, 32, 32)).astype(np.float32)):
            template = disk_template(cfg.radius_px)
            bands = ncc_heatmap(_detector_frames(frames, False), template)
            # no nonzero row: windows of one 4-row block; dense frames: the whole maps
            assert bands.windows.shape == ((3, 4, 32) if not frames.any() else (3, 32, 32))
            assert not bands.first.any()
            assert bands.dense().tobytes() == ncc_heatmap(frames, template).tobytes()
            got = track_sequence(VideoSequence(frames, trajectory=None), cfg)
            want = _reference_track(frames, cfg, False)
            assert all(got[s][k].tobytes() == want[s][k].tobytes() for s in want for k in want[s])


class TestPeakMemory:
    """tracemalloc peak of ``track_sequence`` on one default 40-frame, 224 px
    sequence, after a first call has loaded scipy.fft and its plans."""

    @staticmethod
    def _peak_mb(cfg, temporal_mean=False):
        seq = generate_sequence(cfg, split_stream(cfg, "test", 0))
        track_sequence(seq, cfg, temporal_mean)
        tracemalloc.start()
        try:
            track_sequence(seq, cfg, temporal_mean)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_sparse_frames_build_no_dense_stack(self):
        # one (40, 224, 224) float64 stack is 16 MB; with one the peak read 22.7 MB
        peak = self._peak_mb(SimConfig())
        assert peak < 10.0, peak

    def test_dense_frames_keep_their_peak(self):
        # dense frames make every window its whole map, one dense stack, as before
        # the maps were held as row windows, when the peak read 25.1 MB
        peak = self._peak_mb(SimConfig(noise_sigma=1.0))
        assert peak <= 25.1 + 1.0, peak


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy loads when the correlator first runs; gen, effects and selfcheck never load it
    code = ("import sys, balltrack.cli\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "from balltrack import tracker\n"
            "assert tracker.fftconvolve.__module__.startswith('scipy.signal')\n")
    src = str(Path(balltrack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


_TRACED_TRACK = """
import importlib, sys
import balltrack, spans
from balltrack import heatmaps, tracker
from balltrack.sim import SimConfig
from balltrack.video import generate_sequence, split_stream

modules = [balltrack] + [importlib.import_module(f"balltrack.{layer}") for layer in spans.LAYERS]
names = {(m, k): v for m in modules for k, v in vars(m).items()}
defaults = {f: f.__defaults__ for m in modules for f in vars(m).values() if hasattr(f, "__defaults__")}
methods = {(cls, k): v for layer, classes in spans.CLASS_METHODS.items()
           for cls in (getattr(sys.modules[f"balltrack.{layer}"], c) for c in classes)
           for k, v in vars(cls).items()}

tracer = spans.Tracer()
tracer.install(balltrack)  # raises if a class method or tracker.fftconvolve it patches is gone
cfg = SimConfig(image_size=64, frames_per_video=5)
seq = generate_sequence(cfg, split_stream(cfg, "test", 0))
tracer.active = True
tracker.track_sequence(seq, cfg)
tracer.active = False
totals = tracer.totals()
tracer.uninstall()

assert totals["heatmaps.calls"] == 9, totals["heatmaps.calls"]
for stage in ("ncc_heatmap", "downscale_heatmap"):  # the track path's per-layer figures
    assert totals.get(f"tracker.{stage}.calls") == 1, (stage, totals.get(f"tracker.{stage}.calls"))
operators = {heatmaps.expectation_for_scale(s).__name__ for s in tracker.SCALES}
assert len(operators) == 3, operators
for op in operators:
    assert totals.get(f"heatmaps.{op}.calls") == 1, (op, totals.get(f"heatmaps.{op}.calls"))
assert all(vars(m)[k] is v for (m, k), v in names.items())
assert all(f.__defaults__ is d for f, d in defaults.items())
assert all(vars(cls)[k] is v for (cls, k), v in methods.items())
"""


_TRACED_SELFCHECK = """
import types
import balltrack, spans
from balltrack import physics, selfcheck

kernel = physics.physics_refine_window
functions = [f for f in vars(selfcheck).values() if isinstance(f, types.FunctionType)]
with_function_defaults = [f.__name__ for f in functions
                          if any(callable(d) for d in [*(f.__defaults__ or ()), *(f.__kwdefaults__ or {}).values()])]
assert not with_function_defaults, with_function_defaults
assert selfcheck.physics_refine_window is kernel

tracer = spans.Tracer()
tracer.install(balltrack)
assert selfcheck.physics_refine_window is not kernel  # the binding holds the tracer's wrapper
tracer.active = True
results = selfcheck.run_all(trials=2)
tracer.active = False
totals = tracer.totals()
tracer.uninstall()

assert all(passed for _, passed, _ in results), results
# every kernel call of run_all goes through the binding: fixed point 1, window
# jacobians 3, kink margin 1, both loss jacobians 3 each, unit scaling 2
assert totals.get("physics.physics_refine_window.calls") == 13, totals
assert selfcheck.physics_refine_window is kernel
"""


def _run_with_bench(code):
    # bench/spans.py patches modules process-wide, so each traced run gets a child process
    root = Path(balltrack.__file__).resolve().parents[2]
    paths = [str(root / "src"), str(root / "bench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_bench_tracer_sees_every_stage_of_track_sequence():
    # bench/spans.py wraps the program's functions from outside, by module
    # namespace; a traced track_sequence must enter heatmaps 9 times (operator
    # lookup, operator and hard argmax per scale), and uninstall must put every
    # original back.
    _run_with_bench(_TRACED_TRACK)


def test_bench_tracer_sees_physics_through_selfcheck_binding():
    # selfcheck reaches the physics kernel only through its module binding,
    # which the tracer patches like any other namespace; no selfcheck function
    # holds a function as a default, the refinement must be traced, and
    # uninstall must put the binding back
    _run_with_bench(_TRACED_SELFCHECK)


class TestPooling:
    def test_pyramid_holds_every_scale_and_the_input_itself(self, rng_np):
        hm = rng_np.uniform(size=(2, 16, 16))
        pyramid = downscale_heatmap(hm)
        assert tuple(pyramid) == SCALES
        assert pyramid[224] is hm

    def test_uniform_pools_to_uniform(self):
        hm = np.full((224, 224), 0.7)
        h56, h112, _ = downscale_heatmap(hm).values()
        assert np.allclose(h112, 0.7) and np.allclose(h56, 0.7)
        assert h112.shape == (112, 112) and h56.shape == (56, 56)

    def test_mean_pooling_mass_ratio(self, rng_np):
        hm = rng_np.uniform(size=(224, 224))
        h56, h112, _ = downscale_heatmap(hm).values()
        assert h112.sum() == pytest.approx(hm.sum() / 4)
        assert h56.sum() == pytest.approx(hm.sum() / 16)

    def test_peak_maps_to_floored_coordinates(self):
        hm = np.zeros((224, 224))
        hm[101, 57] = 1.0
        h56, h112, _ = downscale_heatmap(hm).values()
        assert np.unravel_index(np.argmax(h112), h112.shape) == (50, 28)
        assert np.unravel_index(np.argmax(h56), h56.shape) == (25, 14)


class TestStacks:
    @pytest.mark.parametrize("k", (2, 4))
    def test_strided_pooling_is_bitwise_reshape_mean(self, rng_np, k):
        stack = rng_np.uniform(size=(6, 224, 224)) * (rng_np.random((6, 224, 224)) > 0.3)
        pooled = downscale_heatmap(stack)[224 // k]
        reference = stack.reshape(6, 224 // k, k, 224 // k, k).mean(axis=(-3, -1))
        assert pooled.tobytes() == reference.tobytes()

    def test_pooling_a_stack_equals_pooling_each_frame(self, rng_np):
        stack = rng_np.uniform(size=(3, 224, 224))
        pyramid = downscale_heatmap(stack)
        for t in range(3):
            for s, maps in downscale_heatmap(stack[t]).items():
                assert pyramid[s][t].tobytes() == maps.tobytes()

    def test_temporal_mean_matches_per_frame_definition(self, rng_np):
        frames = rng_np.normal(size=(5, 16, 16)).astype(np.float32)
        out = _dense(_detector_frames(frames, temporal_mean=True))
        work = frames.astype(np.float64)
        for t in range(5):
            lo, hi = max(0, t - 1), min(5, t + 2)
            ref = np.maximum(work[t] - work[lo:hi].mean(axis=0), 0.0)
            assert out[t].tobytes() == ref.tobytes()


@st.composite
def _non_finite_stacks(draw):
    """float32 frames and their config with NaN, +inf or -inf at one pixel, at
    one pixel of every frame (the same pixel or one drawn per frame), or at one
    pixel through a run of frames; over zeros or one static noise image, with
    a disk in some frames, so that with the temporal mean a non-finite row may
    change in no frame, start a run of equal rows or end one."""
    size, n = draw(st.sampled_from([16, 32])), draw(st.integers(3, 6))
    cfg = SimConfig(image_size=size, frames_per_video=n, v_max=1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = np.zeros((n, size, size)) + (rng.normal(size=(size, size)) if draw(st.booleans()) else 0.0)
    for t in range(n):
        if draw(st.booleans()):
            frames[t] += render_frame((draw(st.floats(0, size - 1)), draw(st.floats(0, size - 1))), cfg)
    frames = frames.astype(np.float32)
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    pixel = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    where = draw(st.sampled_from(["one", "every", "run"]))
    if where == "every":
        same = draw(pixel) if draw(st.booleans()) else None
        for t in range(n):
            frames[(t, *(same or draw(pixel)))] = value
    else:
        start = draw(st.integers(0, n - 1))
        stop = start + 1 if where == "one" else draw(st.integers(start + 1, n))
        y, x = draw(pixel)
        frames[start:stop, y, x] = value
    return frames, cfg


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
        with pytest.raises(ValueError, match="^image size 226 is not divisible by 4, "):
            track_sequence(seq, cfg)

    @pytest.mark.parametrize("pixel", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected_before_any_transform(self, cfg, clean_seq, monkeypatch, pixel):
        import dataclasses

        import balltrack.tracker as tracker

        frames = clean_seq.frames.copy()
        frames[7, 5, 5] = frames[12, 100, 100] = pixel  # far from the ball, which a map would hide
        monkeypatch.setattr(tracker, "ncc_heatmap", lambda *a, **k: pytest.fail("correlator ran"))
        with pytest.raises(ValueError, match="^frame 7 holds a non-finite pixel$"):
            track_sequence(dataclasses.replace(clean_seq, frames=frames), cfg)

    @settings(max_examples=200, deadline=None)
    @given(case=_non_finite_stacks())
    def test_non_finite_pixel_names_the_first_frame_holding_one(self, case):
        # only frame 0 and the rows the detector gathers are checked; the error
        # names the frame that a scan of the whole stack finds first, and
        # nothing warns on the way
        frames, cfg = case
        first = np.flatnonzero(~np.isfinite(frames).all(axis=(1, 2)))[0]
        for temporal_mean in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^frame {first} holds a non-finite pixel$"):
                    track_sequence(VideoSequence(frames, trajectory=None), cfg, temporal_mean)

    @pytest.mark.parametrize("size", [30, 64])
    def test_frames_of_another_size_rejected_before_any_transform(self, monkeypatch, size):
        import balltrack.tracker as tracker

        cfg = SimConfig(image_size=32, v_max=1.0, frames_per_video=6)
        seq = generate_sequence(cfg, split_stream(cfg, "test", 0))
        frames = np.zeros((6, size, size), np.float32)
        frames[:, :min(size, 32), :min(size, 32)] = seq.frames[:, :size, :size]
        monkeypatch.setattr(tracker, "ncc_heatmap", lambda *a, **k: pytest.fail("correlator ran"))
        with pytest.raises(ValueError, match=f"^frames of {size}x{size} px do not match the image size 32$"):
            track_sequence(VideoSequence(frames, seq.trajectory), cfg)

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
    for pos in trajectory_windows(traj).positions_px:
        win = physics_refine_window(pos, params)
        windows.append((pos, np.round(pos), win.positions_px, win.velocities_fu, win.bounce_flags))
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

    def test_two_frame_truth_rejected(self):
        two = Trajectory(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2, bool))
        with pytest.raises(ValueError, match="^evaluation needs at least 3 frames$"):
            evaluate({}, two)


class TestTrackSplit:
    @pytest.mark.parametrize("sigma, temporal_mean", [(0.0, False), (1.0, True)])
    def test_one_evaluation_path(self, sigma, temporal_mean):
        cfg = SimConfig(noise_sigma=sigma, frames_per_video=12)
        seqs = [generate_sequence(cfg, split_stream(cfg, "test", i)) for i in range(3)]
        per_sequence, predictions = track_split(iter(seqs), cfg, temporal_mean)

        # reference: the per-sequence loop, one track_sequence + evaluate each
        tracked = [track_sequence(seq, cfg, temporal_mean) for seq in seqs]
        scored = [evaluate(preds, seq.trajectory) for preds, seq in zip(tracked, seqs)]
        assert list(per_sequence) == list(METRICS)
        for m in METRICS:
            per_seq = np.array([float(d[m]) for d in scored])
            assert per_sequence[m].tobytes() == per_seq.tobytes()
        for s in (56, 112, 224):
            for key in ("B", "H", "P", "V", "bounce"):
                stacked = np.stack([preds[s][key] for preds in tracked])
                assert predictions[s][key].dtype == stacked.dtype
                assert predictions[s][key].tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("n_pred, n_truth", [(2, 3), (1, 3), (3, 1)])
    def test_leading_shape_mismatch_rejected(self, cfg, n_pred, n_truth):
        # (1,) against (3,) would broadcast; it must not
        params = to_frame_units(cfg)
        trajs = [simulate_trajectory(cfg, RandomStream.from_seed(4, "eval-lead", i)) for i in range(3)]
        preds = [_exact_predictions(t, params) for t in trajs[:n_pred]]
        batch = {224: {key: np.stack([p[224][key] for p in preds]) for key in preds[0][224]}}
        truth = Trajectory(*(np.stack([getattr(t, name) for t in trajs[:n_truth]])
                             for name in ("positions_px", "velocities_fu", "bounce_flags")))
        with pytest.raises(ValueError, match="windows of shape"):
            evaluate(batch, truth)

    def test_mismatched_truth_arrays_rejected(self, cfg):
        params = to_frame_units(cfg)
        traj = simulate_trajectory(cfg, RandomStream.from_seed(4, "eval-lead", 0))
        with pytest.raises(ValueError, match="do not fit bounce flags"):
            bad = Trajectory(traj.positions_px, traj.velocities_fu[:, :1], traj.bounce_flags)
            evaluate(_exact_predictions(traj, params), bad)

    def test_empty_split_rejected(self, small_cfg):
        with pytest.raises(ValueError, match="no sequences"):
            track_split(iter(()), small_cfg)

    def test_generator_memory_does_not_grow_with_the_split(self):
        cfg = SimConfig(image_size=64, frames_per_video=8, noise_sigma=1.0)

        def peak(n):
            sequences = (generate_sequence(cfg, split_stream(cfg, "test", i)) for i in range(n))
            tracemalloc.start()
            try:
                track_split(sequences, cfg, temporal_mean=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        track_split([generate_sequence(cfg, split_stream(cfg, "test", 0))], cfg)  # warm caches
        small, large = peak(2), peak(6)
        assert abs(large - small) <= 0.1 * small, (small, large)

    def test_read_split_memory_does_not_grow_with_the_split(self, tmp_path):
        import dataclasses

        cfg = SimConfig(image_size=64, frames_per_video=8, noise_sigma=1.0)

        def peak(n):
            path, split_cfg = tmp_path / f"split{n}", dataclasses.replace(cfg, n_test=n)
            write_dataset(path, "test", generate_split(split_cfg, "test"), split_cfg)
            tracemalloc.start()
            try:
                track_split(read_dataset(path, "test")[0], cfg, temporal_mean=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        track_split([generate_sequence(cfg, split_stream(cfg, "test", 0))], cfg)  # warm caches
        small, large = peak(2), peak(6)
        assert abs(large - small) <= 0.1 * small, (small, large)


def _rows_by_line(text):
    """Row-by-row reference parser of a results CSV: each non-blank line is
    split and checked in file order, its value's finiteness included."""
    rows = []
    lines = [(i, [f.strip() for f in ln.split(",")])
             for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or ",".join(lines[0][1]).lower() != "config,replicate,metric,value":
        first = lines[0][0] if lines else 1
        raise ValueError(f"line {first}: results CSV must start with 'config,replicate,metric,value'")
    if len(lines) == 1:
        raise ValueError("no data rows")
    for i, fields in lines[1:]:
        if len(fields) != 4:
            raise ValueError(f"line {i}: expected 4 fields (config,replicate,metric,value), "
                             f"found {len(fields)}")
        try:
            rows.append((fields[0], int(fields[1]), fields[2], float(fields[3])))
        except ValueError as err:
            raise ValueError(f"line {i}: {err}") from None
        if not np.isfinite(rows[-1][3]):
            raise ValueError(f"line {i}: value {fields[3]!r} is not finite")
    return rows


# padding that splitlines leaves inside a line and strip drops: \x1f is the
# one such ASCII character besides space and tab, \xa0 a non-ASCII one
_PAD = st.sampled_from(["", "", " ", "\t", " \t ", "\x1f", "\xa0"])
_GOOD = (st.sampled_from(["A0B0C0D0E0F0", "A1B1C1D1E1F1", "ZZ", ""]),
         st.integers(-3, 12).map(str),
         st.sampled_from(["B56", "H224", "enc_avg", ""]),
         st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.just(" 2 ")))
_BAD = {"replicate": st.sampled_from(["one", "1.5", "", "1e3"]),
        "value": st.sampled_from(["x", "", "1.5.0", "0x1p3"]),
        "non-finite": st.sampled_from(["nan", "inf", "-inf", "1e999", "-1E999", "NaN"])}


@st.composite
def _results_texts(draw):
    """Results CSV text: a header (now and then a wrong one), then rows with
    blank lines, padding and mixed line ends.  In half the texts every row
    is good; in the others rows of 3 or 5 fields, bad replicates, bad values
    and non-finite values are mixed in."""
    header = draw(st.sampled_from(["config,replicate,metric,value"] * 9
                                  + [" Config , REPLICATE,metric ,value", "config,replicate,metric",
                                     "a,b,c,d"]))
    kinds = ["row"] * 6 + ["blank"] + ([] if draw(st.booleans()) else ["3", "5", *_BAD])
    lines = [draw(_PAD) for _ in range(draw(st.integers(0, 2)))] + [header]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(_PAD))
            continue
        fields = [draw(field) for field in _GOOD]
        if kind in ("3", "5"):
            fields = fields[:3] if kind == "3" else fields + [draw(_GOOD[3])]
        elif kind != "row":
            fields[1 if kind == "replicate" else 3] = draw(_BAD[kind])
        lines.append(",".join(draw(_PAD) + f + draw(_PAD) for f in fields))
    ends = st.sampled_from(["\n", "\n", "\r\n"])
    text = "".join(line + draw(ends) for line in lines[:-1]) + lines[-1]
    return text + draw(st.sampled_from(["", "\n"]))


class TestMetricsCsv:
    def test_metric_names_pinned(self):
        # the names and the order of metrics.csv's rows and per_sequence_metrics.csv's columns
        assert METRICS == ("B56", "B112", "B224", "H56", "H112", "H224", "P56", "P112", "P224",
                           "V56", "V112", "V224", "bounce56", "bounce112", "bounce224")

    def test_round_trip(self, cfg, clean_seq):
        per_sequence, _ = track_split([clean_seq], cfg)
        text = metrics_to_csv(per_sequence, "A0B0C0D0E0F0", 2)
        rows = metrics_from_csv(text)
        assert [metric for _, _, metric, _ in rows] == list(METRICS)
        for config, rep, metric, value in rows:
            assert config == "A0B0C0D0E0F0" and rep == 2
            assert value == float(per_sequence[metric].mean())

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            metrics_from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("bad_row, message", [
        ("A0B0C0D0E0F0,0,B56", r"line 4: expected 4 fields"),
        ("A0B0C0D0E0F0,one,B56,1.0", r"line 4: invalid literal for int"),
        ("A0B0C0D0E0F0,0,B56,x", r"line 4: could not convert"),
        ("A0B0C0D0E0F0,0,B56,nan", r"line 4: value 'nan' is not finite"),
        ("A0B0C0D0E0F0,0,B56, -inf", r"line 4: value '-inf' is not finite"),
        ("A0B0C0D0E0F0,0,B56,1e999", r"line 4: value '1e999' is not finite"),
        pytest.param("A0B0C0D0E0F0,0,B56,nan\n" + "A0B0C0D0E0F0,1,B56,1.0\n" * 4 + "A0B0C0D0E0F0,one,B56,1.0",
                     r"line 4: value 'nan' is not finite", id="nan-then-bad-replicate"),
    ])
    def test_bad_row_names_its_line(self, bad_row, message):
        text = f"config,replicate,metric,value\nA0B0C0D0E0F0,0,B56,1.0\n\n{bad_row}\n"
        with pytest.raises(ValueError, match=message):
            metrics_from_csv(text)

    @pytest.mark.parametrize("pad", ["\x1f", "\xa0", "\u3000"])
    def test_padding_without_space_or_tab_is_stripped(self, pad):
        # a text with no space or tab can still hold padding that strip drops
        rows = [("A0B0C0D0E0F0", 0, "B56", 1.5), ("A1B0C0D0E0F0", 2, "H56", -0.25)]
        text = pad.join(["", "config,replicate,metric,value\n"] + [
            pad + f"{pad},{pad}".join(map(str, row)) + pad + "\n" for row in rows])
        assert metrics_from_csv(text) == rows
        configs, replicates, metrics, values = metrics_columns_from_csv(text)
        assert (configs, replicates, metrics, values.tolist()) == tuple(map(list, zip(*rows)))

    @settings(max_examples=400, deadline=None)
    @given(text=_results_texts())
    def test_parse_matches_the_row_by_row_reference(self, text):
        def outcome(parse):
            try:
                return repr(parse(text))
            except ValueError as err:
                return f"ValueError: {err}"

        def columns(text):
            configs, replicates, metrics, values = metrics_columns_from_csv(text)
            assert values.dtype == np.float64
            return list(zip(configs, replicates, metrics, values.tolist()))

        want = outcome(_rows_by_line)
        assert outcome(metrics_from_csv) == want
        assert outcome(columns) == want

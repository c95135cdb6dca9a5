import errno
import hashlib
import io
import json
import os
import re
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import balltrack.video
from balltrack.rng import RandomStream
from balltrack.sim import SimConfig, SimulationError
from balltrack.tracker import METRICS, track_split
from balltrack.video import (
    FORMAT_VERSION,
    MAGIC,
    SPLITS,
    DatasetError,
    FormatVersionError,
    ShapeMismatchError,
    TrailingBytesError,
    TruncatedFileError,
    _binary_flags,
    _disk,
    _disk_pixels,
    generate_sequence,
    generate_split,
    make_noise_image,
    read_dataset,
    render_frame,
    _read_record,
    _write_record,
    split_stream,
    staged,
    write_dataset,
)


def _stream(label="video-tests", i=0):
    return RandomStream.from_seed(42, label, i)


class TestRenderFrame:
    def test_disk_pixel_count_radius_two(self, cfg):
        frame = render_frame((100.0, 100.0), cfg)
        # oracle: count lattice points with i^2 + j^2 <= 4
        expected = sum(
            1 for i in range(-3, 4) for j in range(-3, 4) if i * i + j * j <= 4
        )
        assert expected == 13
        assert int(frame.sum()) == 13

    def test_values_binary(self, cfg):
        frame = render_frame((57.3, 41.8), cfg)
        assert set(np.unique(frame)) <= {0.0, 1.0}

    def test_corner_most_valid_center_not_clipped(self, cfg):
        r = cfg.radius_px
        frame = render_frame((r, r), cfg)
        assert int(frame.sum()) == 13

    def test_deterministic(self, cfg):
        a = render_frame((120.4, 63.9), cfg)
        b = render_frame((120.4, 63.9), cfg)
        assert np.array_equal(a, b)

    @settings(deadline=None)
    @given(x=st.floats(-4.0, 36.0), y=st.floats(-4.0, 36.0), radius=st.floats(0.5, 7.0))
    @example(x=0.0, y=-3.0, radius=1.0)  # off the image: the box's stop once wrapped round
    def test_bounding_box_test_matches_the_whole_frame(self, x, y, radius):
        cfg = SimConfig(image_size=32, radius_px=radius, v_max=1.0)
        ii, jj = np.indices((32, 32), dtype=float)
        want = ((jj - x) ** 2 + (ii - y) ** 2 <= radius * radius).astype(np.float32)
        assert render_frame((x, y), cfg).tobytes() == want.tobytes()

    @settings(deadline=None)
    @given(centers=arrays(np.float64, st.tuples(st.integers(1, 6), st.just(2)), elements=st.floats(-12.0, 44.0)),
           radius=st.floats(0.5, 7.0))
    @example(centers=np.array([[-9.0, 5.0], [40.0, 40.0], [-1.5, 31.7], [16.2, 15.9]]), radius=3.0)
    def test_pixels_of_a_stack_are_each_centers_disk(self, centers, radius):
        t, i, j = _disk_pixels(centers, radius, 32)
        for k, center in enumerate(centers):  # off-image centers give no pixel or a clipped disk
            want = np.nonzero(_disk(center, radius, 32, np.float32))
            assert np.array_equal(i[t == k], want[0]) and np.array_equal(j[t == k], want[1])

    @pytest.mark.parametrize("center", [(np.nan, 5.0), (5.0, np.inf), (-np.inf, 5.0)])
    def test_non_finite_center_raises_and_names_it(self, cfg, center):
        message = re.escape(f"disk center {center} is not finite")
        with pytest.raises(ValueError, match=message):
            render_frame(center, cfg)
        with pytest.raises(ValueError, match=message):
            _disk(center, 2.0, 8, np.float32)
        with pytest.raises(ValueError, match=message):  # the first bad center of a stack
            _disk_pixels([(1.0, 2.0), center, (np.nan, np.nan)], 2.0, 8)

    def test_sequence_with_a_non_finite_center_raises(self, monkeypatch):
        real = balltrack.video.simulate_trajectory

        def lost(cfg, rng):
            trajectory = real(cfg, rng)
            trajectory.positions_px[1] = np.nan, 3.0
            return trajectory

        monkeypatch.setattr(balltrack.video, "simulate_trajectory", lost)
        with pytest.raises(ValueError, match=re.escape("disk center (nan, 3.0) is not finite")):
            generate_sequence(_FUZZ_CFG, _stream())

    def test_subpixel_center_moves_support(self, cfg):
        a = render_frame((100.0, 100.0), cfg)
        b = render_frame((100.49, 100.0), cfg)
        assert not np.array_equal(a, b)


class TestNoise:
    def test_sigma_zero_all_zeros(self):
        cfg = SimConfig(noise_sigma=0.0)
        assert not make_noise_image(cfg, _stream()).any()

    def test_moments_at_sigma_one(self):
        cfg = SimConfig(noise_sigma=1.0)
        noise = make_noise_image(cfg, _stream())
        assert abs(noise.mean()) < 0.02
        assert 0.98 < noise.std() < 1.02

    def test_same_stream_state_same_grid(self):
        cfg = SimConfig(noise_sigma=1.0)
        a = make_noise_image(cfg, _stream(i=3))
        b = make_noise_image(cfg, _stream(i=3))
        assert np.array_equal(a, b)


class TestSequence:
    def test_sigma_zero_frames_binary(self):
        cfg = SimConfig(noise_sigma=0.0, frames_per_video=8)
        seq = generate_sequence(cfg, _stream())
        assert set(np.unique(seq.frames)) <= {0.0, 1.0}

    def test_static_noise_shared_by_all_frames(self):
        cfg = SimConfig(noise_sigma=1.0, frames_per_video=8)
        seq = generate_sequence(cfg, _stream())
        for t in range(len(seq.frames)):
            clean = render_frame(seq.trajectory.positions_px[t], cfg)
            assert seq.frames[t].tobytes() == (clean + seq.noise_image).tobytes()

    @settings(deadline=None, max_examples=60)
    @given(size=st.integers(8, 64), place=st.floats(0.0, 1.0), frames=st.integers(3, 8),
           sigma=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2**32 - 1), signed_zeros=st.just(False))
    @example(size=16, place=0.3, frames=5, sigma=1.0, seed=3, signed_zeros=True)
    @example(size=9, place=1.0, frames=4, sigma=0.0, seed=5, signed_zeros=True)
    def test_frames_are_the_rendered_frame_plus_the_noise(self, size, place, frames, sigma, seed, signed_zeros):
        # radius from 0.5 to just under H/2: the largest that leaves the center
        # 0.02 px to move in; scale and v_max keep a step under a quarter of it
        radius = 0.5 + place * ((size - 1) / 2 - 0.01 - 0.5)
        room = size - 1 - 2 * radius
        scale = max(0.02, 8 * 9.81 * 0.04**2 * frames / room)
        cfg = SimConfig(image_size=size, radius_px=radius, scale=scale, v_max=room * scale / (8 * 0.04),
                        frames_per_video=frames, noise_sigma=sigma, seed=seed)
        real = balltrack.video.make_noise_image

        def noise_of_signed_zeros(cfg, rng):  # 0 + -0.0 is 0.0, and a subnormal stays
            noise = np.full((cfg.image_size, cfg.image_size), -0.0, dtype=np.float32)
            noise[::3, ::2] = np.float32(1e-45)
            noise[1::3, ::2] = np.float32(-1e-45)
            return noise

        with mock.patch.object(balltrack.video, "make_noise_image",
                               noise_of_signed_zeros if signed_zeros else real):
            seq = generate_sequence(cfg, split_stream(cfg, "test", 0))
        for t, center in enumerate(seq.trajectory.positions_px):
            assert seq.frames[t].tobytes() == (render_frame(center, cfg) + seq.noise_image).tobytes()

    def test_ball_contrast_about_one_over_noise(self):
        cfg = SimConfig(noise_sigma=1.0, frames_per_video=40)
        seq = generate_sequence(cfg, _stream(i=7))
        diffs = []
        for t in range(len(seq.frames)):
            mask = render_frame(seq.trajectory.positions_px[t], cfg) > 0
            diffs.append(seq.frames[t][mask].mean() - seq.frames[t][~mask].mean())
        assert np.mean(diffs) == pytest.approx(1.0, abs=0.2)

    def test_noise_streams_disjoint_across_splits(self, small_cfg):
        a = split_stream(small_cfg, "train", 0)
        b = split_stream(small_cfg, "val", 0)
        c = split_stream(small_cfg, "test", 0)
        keys = {a.key, b.key, c.key}
        assert len(keys) == 3

    def test_trajectories_independent_of_sigma(self):
        c0 = SimConfig(noise_sigma=0.0, frames_per_video=10)
        c1 = SimConfig(noise_sigma=1.0, frames_per_video=10)
        s0 = generate_sequence(c0, split_stream(c0, "test", 4))
        s1 = generate_sequence(c1, split_stream(c1, "test", 4))
        assert np.array_equal(s0.trajectory.positions_px, s1.trajectory.positions_px)


class TestDatasetIO:
    def test_round_trip_bit_identical(self, tmp_path, small_cfg):
        seqs = generate_split(small_cfg, "test")
        write_dataset(tmp_path, "test", seqs, small_cfg)
        loaded, cfg_back = read_dataset(tmp_path, "test")
        assert cfg_back == small_cfg
        assert len(loaded) == len(seqs)
        for a, b in zip(seqs, loaded):
            assert a.frames.tobytes() == b.frames.tobytes()
            assert a.trajectory.positions_px.tobytes() == b.trajectory.positions_px.tobytes()
            assert a.trajectory.velocities_fu.tobytes() == b.trajectory.velocities_fu.tobytes()
            assert np.array_equal(a.trajectory.bounce_flags, b.trajectory.bounce_flags)

    def test_records_are_written_and_read_in_the_order_of_the_record_table(self, tmp_path, monkeypatch):
        # _FILES alone orders a split's records: with its truth records reversed,
        # the truth file starts with the (N, T) bounce flags and reads back the same
        files = dict(balltrack.video._FILES)
        monkeypatch.setattr(balltrack.video, "_FILES", (("frames", files["frames"]), ("truth", files["truth"][::-1])))
        cfg = replace(_FUZZ_CFG, n_test=2)
        written = generate_split(cfg, "test")
        write_dataset(tmp_path, "test", written, cfg)
        blob = (tmp_path / "test_truth.bin").read_bytes()
        assert struct.unpack_from("<I2Q", blob, 8) == (2, 2, cfg.frames_per_video)
        assert _header_offsets(blob, ("<u1", "<f8", "<f8"))
        split, _ = read_dataset(tmp_path, "test")
        assert _split_bytes(split) == _split_bytes(written)

    def test_default_split_sizes_match_standard_setup(self, cfg):
        assert (cfg.n_train, cfg.n_val, cfg.n_test) == (100, 50, 100)
        assert cfg.frames_per_video == 40

    def test_corrupt_magic_raises_version_error(self, tmp_path, small_cfg):
        seqs = generate_split(small_cfg, "val")
        write_dataset(tmp_path, "val", seqs, small_cfg)
        path = tmp_path / "val_frames.bin"
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionError):
            read_dataset(tmp_path, "val")

    def test_wrong_version_raises(self, tmp_path, small_cfg):
        seqs = generate_split(small_cfg, "val")
        write_dataset(tmp_path, "val", seqs, small_cfg)
        path = tmp_path / "val_frames.bin"
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionError):
            read_dataset(tmp_path, "val")

    def test_manifest_of_another_format_version_raises(self, tmp_path, small_cfg):
        write_dataset(tmp_path, "val", generate_split(small_cfg, "val"), small_cfg)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["format_version"] = FORMAT_VERSION + 1
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatVersionError, match="incompatible manifest version"):
            read_dataset(tmp_path, "val")

    def test_cut_inside_a_record_header_raises(self, tmp_path, small_cfg):
        seqs = generate_split(small_cfg, "val")
        write_dataset(tmp_path, "val", seqs, small_cfg)
        path = tmp_path / "val_truth.bin"
        blob = path.read_bytes()
        second = 12 + 8 * 3 + len(seqs) * small_cfg.frames_per_video * 2 * 8  # after the positions
        assert blob[second:second + 4] == MAGIC
        for cut in (second + 1, second + 11):
            path.write_bytes(blob[:cut])
            with pytest.raises(TruncatedFileError, match="truncated record header"):
                read_dataset(tmp_path, "val")

    def test_truncated_payload_raises(self, tmp_path, small_cfg):
        seqs = generate_split(small_cfg, "val")
        write_dataset(tmp_path, "val", seqs, small_cfg)
        path = tmp_path / "val_frames.bin"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFileError):
            read_dataset(tmp_path, "val")

    def test_sequence_count_mismatch_raises(self, tmp_path, small_cfg):
        seqs = generate_split(small_cfg, "test")
        write_dataset(tmp_path, "test", seqs, small_cfg)
        # rewrite the truth file with one sequence dropped
        import json

        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["splits"]["test"] = len(seqs) - 1
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ShapeMismatchError):
            read_dataset(tmp_path, "test")

    @pytest.mark.parametrize("listed", [True, 1.0, "8", [8], {"n": 8}],
                             ids=["bool", "float", "string", "list", "object"])
    def test_non_integer_split_count_raises(self, tmp_path, small_cfg, listed):
        cfg = replace(small_cfg, n_test=1)  # a count equal to 1 once passed as the split's size
        write_dataset(tmp_path, "test", generate_split(cfg, "test"), cfg)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["splits"]["test"] = listed
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match=re.escape(f"'test' count {listed!r} is not an integer") + "$"):
            read_dataset(tmp_path, "test")

    def test_regeneration_is_bit_identical(self, tmp_path, small_cfg):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            write_dataset(d, "train", generate_split(small_cfg, "train"), small_cfg)
        for name in ("train_frames.bin", "train_truth.bin", "meta.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_round_trip_with_noise(self, tmp_path):
        cfg = SimConfig(noise_sigma=1.0, frames_per_video=8, n_train=2, n_val=1, n_test=2)
        seqs = generate_split(cfg, "test")
        write_dataset(tmp_path, "test", seqs, cfg)
        loaded, _ = read_dataset(tmp_path, "test")
        for a, b in zip(seqs, loaded):
            assert a.frames.tobytes() == b.frames.tobytes()

    def test_mixed_configs_in_one_directory_rejected(self, tmp_path, small_cfg):
        write_dataset(tmp_path, "train", generate_split(small_cfg, "train"), small_cfg)
        other = SimConfig(**{**small_cfg.__dict__, "noise_sigma": 1.0})
        with pytest.raises(DatasetError):
            write_dataset(tmp_path, "val", generate_split(other, "val"), other)

    def test_rejected_write_leaves_dataset_intact(self, tmp_path):
        clean = SimConfig(frames_per_video=6, n_test=2, noise_sigma=0.0)
        noisy = replace(clean, noise_sigma=1.0)
        write_dataset(tmp_path, "test", generate_split(clean, "test"), clean)
        before = [seq.frames.tobytes() for seq in read_dataset(tmp_path, "test")[0]]
        with pytest.raises(DatasetError):
            write_dataset(tmp_path, "test", generate_split(noisy, "test"), noisy)
        after, cfg_back = read_dataset(tmp_path, "test")
        assert cfg_back == clean
        assert [seq.frames.tobytes() for seq in after] == before

    def test_failed_write_keeps_previous_split(self, tmp_path, small_cfg, monkeypatch):
        import balltrack.video as video

        write_dataset(tmp_path, "test", generate_split(small_cfg, "test"), small_cfg)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        headers = []

        def failing_header(fh, shape):
            headers.append(shape)
            if len(headers) == 4:  # the last truth record, after the frames file
                raise OSError("disk full")
            fh.write(b"partial")

        monkeypatch.setattr(video, "_write_header", failing_header)
        other = generate_split(small_cfg, "val")
        with pytest.raises(OSError):
            write_dataset(tmp_path, "test", other, small_cfg)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        monkeypatch.undo()
        loaded, _ = read_dataset(tmp_path, "test")
        for a, b in zip(generate_split(small_cfg, "test"), loaded):
            assert a.frames.tobytes() == b.frames.tobytes()

    def test_write_does_not_stack_the_split(self, tmp_path):
        cfg = SimConfig(noise_sigma=1.0, frames_per_video=10, n_test=8)
        seqs = list(generate_split(cfg, "test"))  # held: this measures the writer's own overhead
        nbytes = sum(seq.frames.nbytes for seq in seqs)
        tracemalloc.start()
        try:
            write_dataset(tmp_path, "test", seqs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * nbytes
        loaded, _ = read_dataset(tmp_path, "test")
        assert [seq.frames.tobytes() for seq in loaded] == [seq.frames.tobytes() for seq in seqs]

    def test_mixed_frame_shapes_rejected_before_writing(self, tmp_path, small_cfg):
        write_dataset(tmp_path, "test", generate_split(small_cfg, "test"), small_cfg)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        seqs = list(generate_split(small_cfg, "test"))
        seqs[1] = replace(seqs[1], frames=seqs[1].frames[:-1])
        with pytest.raises(ShapeMismatchError, match=r"sequence 1 .* shapes \(\(11, 224, 224\)"):
            write_dataset(tmp_path, "test", seqs, small_cfg)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        fresh = tmp_path / "fresh"
        with pytest.raises(ShapeMismatchError):
            write_dataset(fresh, "test", seqs, small_cfg)
        assert not fresh.exists()

    @pytest.mark.parametrize("bad", ["image_size", "frames_per_video"])
    def test_frames_not_of_the_config_shape_rejected_before_writing(self, tmp_path, bad):
        cfg = SimConfig(image_size=36, frames_per_video=3, n_test=2)
        if bad == "image_size":  # 32 px frames under image_size=36
            seqs = generate_split(replace(cfg, image_size=32), "test")
        else:  # 2-frame sequences under frames_per_video=3
            seqs = []
            for seq in generate_split(cfg, "test"):
                traj = seq.trajectory
                seqs.append(replace(seq, frames=seq.frames[:2], trajectory=replace(
                    traj, positions_px=traj.positions_px[:2], velocities_fu=traj.velocities_fu[:2],
                    bounce_flags=traj.bounce_flags[:2])))
        fresh = tmp_path / "fresh"
        with pytest.raises(ShapeMismatchError, match=r"sequence 0 .* but the config's are \(\(3, 36, 36\)"):
            write_dataset(fresh, "test", seqs, cfg)
        assert not fresh.exists()

    @pytest.mark.parametrize("bad", ["one_frame_short", "mixed_lengths"])
    def test_trajectories_not_covering_the_frames_rejected_before_writing(self, tmp_path, small_cfg, bad):
        write_dataset(tmp_path, "test", generate_split(small_cfg, "test"), small_cfg)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        seqs = list(generate_split(small_cfg, "test"))
        short = [i for i in range(len(seqs)) if bad == "one_frame_short" or i == 1]
        for i in short:
            traj = seqs[i].trajectory
            seqs[i] = replace(seqs[i], trajectory=replace(
                traj, positions_px=traj.positions_px[:-1], velocities_fu=traj.velocities_fu[:-1],
                bounce_flags=traj.bounce_flags[:-1]))
        with pytest.raises(ShapeMismatchError, match=rf"sequence {short[0]} .* shapes \(\(12, 224, 224\), \(11, 2\)"):
            write_dataset(tmp_path, "test", seqs, small_cfg)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("name", ["test_frames.bin", "test_truth.bin"])
    def test_bytes_after_the_last_record_raise(self, tmp_path, small_cfg, name):
        write_dataset(tmp_path, "test", generate_split(small_cfg, "test"), small_cfg)
        with open(tmp_path / name, "ab") as fh:
            fh.write(bytes(700))
        with pytest.raises(TrailingBytesError, match=f"{name}: 700 bytes after the last record"):
            read_dataset(tmp_path, "test")

    def test_missing_split_names_the_listed_splits(self, tmp_path, small_cfg):
        for split in ("train", "val"):
            write_dataset(tmp_path, split, generate_split(small_cfg, split), small_cfg)
        with pytest.raises(DatasetError, match=r"no 'test' split.*lists: train, val"):
            read_dataset(tmp_path, "test")

    @pytest.mark.parametrize("change", [{"n_test": 0}, {"colour": 1}, {"noise_sigma": float("nan")},
                                        {"seed": -1}, {"seed": 2**64}, {"noise_sigma": 1e308}])
    def test_invalid_manifest_config_is_dataset_error(self, tmp_path, small_cfg, change):
        import json

        write_dataset(tmp_path, "train", generate_split(small_cfg, "train"), small_cfg)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["config"].update(change)
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match="invalid configuration"):
            read_dataset(tmp_path, "train")

    @pytest.mark.parametrize("field", ["image_size", "frames_per_video", "n_train", "n_val", "n_test",
                                       "seed"])
    @pytest.mark.parametrize("value", [12.0, True])
    def test_non_integral_manifest_size_is_dataset_error(self, tmp_path, small_cfg, field, value):
        write_dataset(tmp_path, "train", generate_split(small_cfg, "train"), small_cfg)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["config"][field] = value
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match=f"invalid configuration: parameters must be integers: {field}="):
            read_dataset(tmp_path, "train")

    @pytest.mark.parametrize("corrupt", [
        lambda text: text[: len(text) // 2],                     # truncated JSON
        lambda text: "[]",                                        # not an object
        lambda text: '{"format_version": 1}',                     # no config
        lambda text: text.replace('"splits": {', '"splits": [{').replace("}\n}", "}]\n}"),
    ], ids=["truncated", "list", "no-config", "list-splits"])
    def test_corrupt_manifest_is_dataset_error(self, tmp_path, small_cfg, corrupt):
        write_dataset(tmp_path, "train", generate_split(small_cfg, "train"), small_cfg)
        meta = tmp_path / "meta.json"
        meta.write_text(corrupt(meta.read_text()))
        with pytest.raises(DatasetError, match="meta.json"):
            read_dataset(tmp_path, "train")

    def test_manifest_without_splits_still_loads(self, tmp_path, small_cfg):
        import json

        write_dataset(tmp_path, "train", generate_split(small_cfg, "train"), small_cfg)
        meta = json.loads((tmp_path / "meta.json").read_text())
        del meta["splits"]
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        assert len(read_dataset(tmp_path, "train")[0]) == small_cfg.n_train

    @pytest.mark.parametrize("bad", ["bounces", "positions", "velocities"])
    def test_truth_record_of_the_wrong_shape_raises(self, tmp_path, small_cfg, bad):
        seqs = generate_split(small_cfg, "test")
        write_dataset(tmp_path, "test", seqs, small_cfg)
        records = {
            "positions": np.stack([s.trajectory.positions_px for s in seqs]),
            "velocities": np.stack([s.trajectory.velocities_fu for s in seqs]),
            "bounces": np.stack([s.trajectory.bounce_flags for s in seqs]).astype(np.uint8),
        }
        records[bad] = records[bad][:, :, None]  # (N, T, 1) flags, (N, T, 1, 2) vectors
        with open(tmp_path / "test_truth.bin", "wb") as fh:
            for name, dtype in (("positions", "<f8"), ("velocities", "<f8"), ("bounces", "<u1")):
                _write_record(fh, records[name], dtype)
        with pytest.raises(ShapeMismatchError, match=re.escape(str(records[bad].shape))):
            read_dataset(tmp_path, "test")

    def test_scalar_frames_record_raises(self, tmp_path, small_cfg):
        write_dataset(tmp_path, "test", generate_split(small_cfg, "test"), small_cfg)
        with open(tmp_path / "test_frames.bin", "wb") as fh:
            _write_record(fh, np.zeros((), dtype=np.float32), "<f4")
        with pytest.raises(ShapeMismatchError, match=r"records of shapes \(\(\), "):
            read_dataset(tmp_path, "test")

    def test_zero_sequence_split_raises(self, zero_sequence_split):
        with pytest.raises(ShapeMismatchError, match=r"shapes \(\(0, 12, 224, 224\).* 0 sequences"):
            read_dataset(zero_sequence_split, "test")

    def test_bounce_byte_other_than_zero_or_one_raises(self, tmp_path, small_cfg):
        write_dataset(tmp_path, "test", generate_split(small_cfg, "test"), small_cfg)
        path = tmp_path / "test_truth.bin"
        blob = bytearray(path.read_bytes())
        blob[-1] = 2  # the last byte of the file is the last bounce flag
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="test_truth.bin: bounce flags other than 0 and 1"):
            read_dataset(tmp_path, "test")

    def test_bounce_byte_of_minus_one_raises(self, tmp_path, small_cfg):
        write_dataset(tmp_path, "test", generate_split(small_cfg, "test"), small_cfg)
        path = tmp_path / "test_truth.bin"
        blob = bytearray(path.read_bytes())
        blob[-2] = 255  # -1 written as a byte
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="test_truth.bin: bounce flags other than 0 and 1"):
            read_dataset(tmp_path, "test")

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.float32, np.float64])
    def test_binary_flags_of_any_dtype(self, dtype):
        assert _binary_flags(np.array([0, 1, 1, 0], dtype=dtype))
        assert _binary_flags(np.zeros((2, 3), dtype=dtype))
        bad = {"b": [], "u": [2, 255], "i": [2, -1], "f": [2, -1, 0.5, np.nan]}[np.dtype(dtype).kind]
        for value in bad:  # 255 is -1 as a byte
            assert not _binary_flags(np.array([0, value, 1]).astype(dtype))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.float64])
    def test_bounce_flags_of_zero_and_one_written_in_any_dtype(self, tmp_path, dtype):
        cfg = SimConfig(image_size=36, frames_per_video=3, n_test=2)
        seqs = list(generate_split(cfg, "test"))
        flags = [np.array([True, False, True]), np.array([False, False, True])]
        seqs = [replace(seq, trajectory=replace(seq.trajectory, bounce_flags=f.astype(dtype)))
                for seq, f in zip(seqs, flags)]
        write_dataset(tmp_path, "test", seqs, cfg)
        loaded, _ = read_dataset(tmp_path, "test")
        assert [seq.trajectory.bounce_flags.tolist() for seq in loaded] == [f.tolist() for f in flags]

    @pytest.mark.parametrize("flags", [[0, 2, 1], [0, -1, 0], [0.0, 0.7, 1.0], [0.0, 0.5, 1.0], [0.0, np.nan, 1.0]])
    def test_bounce_flags_other_than_zero_or_one_rejected_before_writing(self, tmp_path, flags):
        # a 0.7 would be written as 0, and the split would load cleanly but wrong
        cfg = SimConfig(image_size=36, frames_per_video=3, n_test=2)
        write_dataset(tmp_path, "test", generate_split(cfg, "test"), cfg)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        seqs = list(generate_split(cfg, "test"))
        seqs[1] = replace(seqs[1], trajectory=replace(seqs[1].trajectory, bounce_flags=np.array(flags)))
        with pytest.raises(DatasetError, match="sequence 1 of split 'test' has bounce flags other than 0 and 1"):
            write_dataset(tmp_path, "test", seqs, cfg)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        fresh = tmp_path / "fresh"
        with pytest.raises(DatasetError):
            write_dataset(fresh, "test", seqs, cfg)
        assert not fresh.exists()

    @pytest.mark.parametrize("split", ["../escaped", "bogus"])
    def test_generate_rejects_an_unknown_split(self, small_cfg, split):
        with pytest.raises(ValueError, match=f"unknown split {re.escape(repr(split))}"):
            generate_split(small_cfg, split)

    @pytest.mark.parametrize("split", ["../escaped", "bogus"])
    def test_write_rejects_an_unknown_split_before_touching_anything(self, tmp_path, small_cfg, split):
        # "../escaped" would name ../escaped_frames.bin, outside the dataset
        with pytest.raises(DatasetError, match=f"unknown split {re.escape(repr(split))}"):
            write_dataset(tmp_path / "d", split, generate_split(small_cfg, "test"), small_cfg)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("split", ["../escaped", "bogus"])
    def test_read_rejects_an_unknown_split(self, tmp_path, small_cfg, split):
        data = tmp_path / "d"
        write_dataset(data, "test", generate_split(small_cfg, "test"), small_cfg)
        for file in ("frames", "truth"):  # files the name would point at, were it accepted
            (data / f"{split}_{file}.bin").write_bytes((data / f"test_{file}.bin").read_bytes())
        with pytest.raises(DatasetError, match=f"unknown split {re.escape(repr(split))}"):
            read_dataset(data, split)

    def test_empty_split_rejected_before_touching_the_directory(self, tmp_path, small_cfg):
        target = tmp_path / "d"
        with pytest.raises(DatasetError, match="no sequences"):
            write_dataset(target, "test", [], small_cfg)
        assert not target.exists()

    def test_oversized_header_is_truncated_file(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, 1)
                         + struct.pack("<Q", 1 << 62) + bytes(16))
        with open(path, "rb") as fh, pytest.raises(TruncatedFileError):
            _read_record(fh, "<f4", path)

    def test_short_read_is_truncated_file(self):
        class ShortReads(io.BytesIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer)[: len(buffer) // 2])

        fh = io.BytesIO()
        _write_record(fh, np.arange(12.0), "<f8")
        with pytest.raises(TruncatedFileError, match="truncated payload"):
            _read_record(ShortReads(fh.getvalue()), "<f8", "short")


# sha256 of every file of a sigma=0, seed-42 dataset (12 frames, 2/1/2
# sequences).  Sigma=0 needs only integer hashing and the correctly rounded
# IEEE +, -, *, /, so its digests hold on any CPU and numpy build.
_GOLDEN_SHA256 = {
    "meta.json": "d113d9da618059966efa528566152755607f2e01ec15145c446b80117426633c",
    "test_frames.bin": "3327c41954440ab6786a1cd8bedf291a24e34388a11ce13abec039e9d221ed8e",
    "test_truth.bin": "06a98c2ae9479387f4ec538315a3af0bbbc44080342abafda2653ef09d5c7d92",
    "train_frames.bin": "c613fc1ca9ce25756ff25cdad8797ef077ae43e6dbfe68a38c5b30f07233c800",
    "train_truth.bin": "2ab0866ac25ca7aaa16c3cd77b11d99679794542dc08edd989d6edc59cd1d7d4",
    "val_frames.bin": "126515ad94dad141766672101dddb81f8cb5ef7a6af952bf03a0f44e6f067d8a",
    "val_truth.bin": "2bdadfbddb1923f891169a06c979db7abf9f86832b7f7486865dfd841830ded6",
}

# the same dataset at sigma=1: the truth is the same, the frames carry the
# Box-Muller noise.  np.log/cos/sin may round the last bit differently on
# another CPU or numpy build (recorded with numpy 2.4 on x86-64); there a
# mismatch of the frames files alone means the libm differs, not the renderer
_GOLDEN_SHA256_SIGMA_ONE = {
    **_GOLDEN_SHA256,
    "meta.json": "9203d7ed083b40b8e0b3101fe5317e8246f8626490591962368c807d33717f04",
    "test_frames.bin": "19b30fcf220330da388aaef3006cf5fcd36dc0296fa214d696138ab519e6e6b7",
    "train_frames.bin": "211a166eba67d0171b97114953043e58868bf893faeda43daf8e3d8de53a1c7f",
    "val_frames.bin": "27db541a78132f927a7b895ed259b1ae943b75d6108bcf1e662cdf1dce2e1552",
}


def _dataset_digests(path, sigma):
    cfg = SimConfig(noise_sigma=sigma, seed=42, frames_per_video=12, n_train=2, n_val=1, n_test=2)
    for split in SPLITS:
        write_dataset(path, split, generate_split(cfg, split), cfg)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in path.iterdir()}


class TestGoldenBytes:
    def test_sigma_zero_dataset_matches_recorded_digests(self, tmp_path):
        assert _dataset_digests(tmp_path, 0.0) == _GOLDEN_SHA256

    def test_sigma_one_dataset_matches_recorded_digests(self, tmp_path):
        assert _dataset_digests(tmp_path, 1.0) == _GOLDEN_SHA256_SIGMA_ONE


# the bench's probe split: 1 sequence of 3 frames of 16 x 16 px
_FUZZ_CFG = SimConfig(image_size=16, radius_px=2.0, v_max=2.0, frames_per_video=3,
                      n_train=1, n_val=1, n_test=1, seed=7)
# element type of each record of a split file, in file order
_FILE_DTYPES = {"test_frames.bin": ("<f4",), "test_truth.bin": ("<f8", "<f8", "<u1")}


@pytest.fixture(scope="module")
def fuzz_split(tmp_path_factory):
    """A valid 1-sequence split: its directory, its files' bytes and what it loads as."""
    path = tmp_path_factory.mktemp("fuzz")
    write_dataset(path, "test", generate_split(_FUZZ_CFG, "test"), _FUZZ_CFG)
    files = {p.name: p.read_bytes() for p in path.iterdir()}
    sequences, cfg = read_dataset(path, "test")
    return path, files, (list(sequences), cfg)  # frames read now: the tests rewrite the files


def _contents(loaded):
    sequences, cfg = loaded
    return cfg, [tuple((a.dtype, a.shape, a.tobytes()) for a in (s.frames, *vars(s.trajectory).values()))
                 for s in sequences]


def _header_offsets(blob, dtypes):
    """Byte offsets of every record header of a split file."""
    offsets, start = [], 0
    for dtype in dtypes:
        ndim = struct.unpack_from("<I", blob, start + 8)[0]
        shape = struct.unpack_from(f"<{ndim}Q", blob, start + 12)
        offsets += range(start, start + 12 + 8 * ndim)
        start += 12 + 8 * ndim + int(np.prod(shape)) * np.dtype(dtype).itemsize
    assert start == len(blob)
    return offsets


def _load_changed(fuzz_split, name, blob):
    """Read the split with one file's bytes replaced; restore every file first."""
    path, files, _ = fuzz_split
    for other, data in files.items():
        (path / other).write_bytes(blob if other == name else data)
    return read_dataset(path, "test")


_FUZZ = settings(deadline=None, max_examples=150)


class TestSplitFuzz:
    """A damaged split raises a DatasetError subclass and nothing else."""

    @_FUZZ
    @given(name=st.sampled_from(sorted(_FILE_DTYPES)), data=st.data())
    def test_truncated_bin_raises(self, fuzz_split, name, data):
        blob = fuzz_split[1][name]
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(DatasetError):
            _load_changed(fuzz_split, name, blob[:cut])

    @_FUZZ
    @given(name=st.sampled_from(sorted(_FILE_DTYPES)), tail=st.binary(min_size=1, max_size=64))
    def test_appended_tail_raises(self, fuzz_split, name, tail):
        with pytest.raises(DatasetError):
            _load_changed(fuzz_split, name, fuzz_split[1][name] + tail)

    @_FUZZ
    @given(drop=st.integers(1, 512))  # meta.json here is ~340 bytes
    @example(drop=1)
    def test_truncated_manifest_raises_or_loads_the_same_split(self, fuzz_split, drop):
        _, files, split = fuzz_split
        text = files["meta.json"]
        cut = text[: max(len(text) - drop, 0)]
        if text[len(cut):] == b"\n":  # only the trailing newline cut: still the same JSON
            assert _contents(_load_changed(fuzz_split, "meta.json", cut)) == _contents(split)
            return
        with pytest.raises(DatasetError):
            _load_changed(fuzz_split, "meta.json", cut)

    @_FUZZ
    @given(name=st.sampled_from(sorted(_FILE_DTYPES)), data=st.data())
    def test_mutated_header_byte_raises_or_loads_the_same_shapes(self, fuzz_split, name, data):
        blob = bytearray(fuzz_split[1][name])
        at = data.draw(st.sampled_from(_header_offsets(blob, _FILE_DTYPES[name])))
        blob[at] ^= data.draw(st.integers(1, 255))
        try:
            loaded = _load_changed(fuzz_split, name, bytes(blob))
        except DatasetError:
            return
        assert _contents(loaded) == _contents(fuzz_split[2])


def _split_bytes(sequences):
    return [[np.asarray(a).tobytes() for a in (s.frames, *vars(s.trajectory).values())] for s in sequences]


class TestSplitRoundTrip:
    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 3), frames=st.integers(3, 6), size=st.integers(8, 40),
           sigma=st.floats(0.0, 2.0), seed=st.integers(0, 2**63))
    def test_written_split_reads_back_bit_identical(self, n, frames, size, sigma, seed):
        cfg = SimConfig(image_size=size, v_max=1.0, frames_per_video=frames, noise_sigma=sigma,
                        n_train=1, n_val=1, n_test=n, seed=seed)
        sequences = generate_split(cfg, "test")
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first", Path(tmp) / "second"
            write_dataset(first, "test", sequences, cfg)
            loaded, cfg_back = read_dataset(first, "test")
            assert cfg_back == cfg
            assert _split_bytes(loaded) == _split_bytes(sequences)
            write_dataset(second, "test", loaded, cfg_back)  # the loaded split writes the same files
            assert {p.name: p.read_bytes() for p in second.iterdir()} == \
                   {p.name: p.read_bytes() for p in first.iterdir()}


class TestAdmittedConfigs:
    """Every configuration SimConfig admits generates, writes, reads back and
    tracks, except that the tracker, which owns the rule, rejects a radius
    below 1 px before any transform."""

    @settings(deadline=None, max_examples=25)
    @given(size=st.integers(2, 16).map(lambda k: 4 * k), radius=st.floats(0.5, 6.0),
           v_max=st.floats(0.2, 4.0), restitution=st.sampled_from((0.75, 1.0)), frames=st.integers(3, 8),
           sigma=st.sampled_from((0.0, 1.0)), seed=st.integers(0, 2**63))
    def test_generates_round_trips_and_tracks(self, size, radius, v_max, restitution, frames, sigma, seed):
        try:
            cfg = SimConfig(image_size=size, radius_px=radius, v_max=v_max, restitution=restitution,
                            frames_per_video=frames, noise_sigma=sigma, n_train=1, n_val=1, n_test=2, seed=seed)
        except SimulationError:
            assume(False)
        sequences = generate_split(cfg, "test")
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(tmp, "test", sequences, cfg)
            loaded, cfg_back = read_dataset(tmp, "test")
            assert cfg_back == cfg
            assert _split_bytes(loaded) == _split_bytes(sequences)
            if radius < 1:
                with pytest.raises(ValueError, match=r"^template radius must be >= 1$"):
                    track_split(loaded, cfg)
                return
            per_sequence, predictions = track_split(loaded, cfg)
        assert {metric: values.shape for metric, values in per_sequence.items()} == \
               {metric: (2,) for metric in METRICS}
        assert all(p["B"].shape == (2, frames - 2, 3, 2) for p in predictions.values())


class TestStaged:
    """video.staged: files land together, the last name (the manifest) last."""

    NAMES = ("a.bin", "b.bin", "manifest.json")

    @staticmethod
    def _contents(root):
        return {str(p.relative_to(root)): p.is_file() and p.read_text() for p in root.rglob("*")}

    def test_names_renamed_in_order_after_the_old_manifest_is_removed(self, tmp_path, monkeypatch):
        for name in self.NAMES:
            (tmp_path / name).write_text("old")
        renames, real = [], os.replace

        def rename(src, dst):
            renames.append((Path(src).name, Path(dst).name, (tmp_path / "manifest.json").exists()))
            real(src, dst)

        monkeypatch.setattr(os, "replace", rename)
        with staged(tmp_path, self.NAMES) as tmps:
            assert tmps == [tmp_path / f".{name}.tmp" for name in self.NAMES]
            for tmp in tmps:
                tmp.write_text(f"new {tmp.name}")
        assert renames == [(f".{name}.tmp", name, False) for name in self.NAMES]
        assert self._contents(tmp_path) == {name: f"new .{name}.tmp" for name in self.NAMES}

    @pytest.mark.parametrize("target", ["existing", "fresh"])
    def test_raising_block_leaves_the_filesystem_as_it_was(self, tmp_path, target):
        path = tmp_path if target == "existing" else tmp_path / "fresh" / "nested"
        if target == "existing":
            for name in self.NAMES:
                (tmp_path / name).write_text("old")
        before = self._contents(tmp_path)
        with pytest.raises(ValueError, match="^stop$"):
            with staged(path, self.NAMES) as tmps:
                for tmp in tmps:
                    tmp.write_text("new")
                raise ValueError("stop")
        assert self._contents(tmp_path) == before  # no temporary file, no directory the call made

    def test_failed_second_rename_leaves_no_manifest_and_no_temporary_file(self, tmp_path, monkeypatch):
        for name in self.NAMES:
            (tmp_path / name).write_text("old")
        renames, real = [], os.replace

        def rename(src, dst):
            renames.append(dst)
            if len(renames) == 2:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real(src, dst)

        monkeypatch.setattr(os, "replace", rename)
        with pytest.raises(OSError):
            with staged(tmp_path, self.NAMES) as tmps:
                for tmp in tmps:
                    tmp.write_text("new")
        assert self._contents(tmp_path) == {"a.bin": "new", "b.bin": "old"}  # and no lock

    def test_block_runs_under_a_lock_holding_this_pid(self, tmp_path):
        lock = tmp_path / "fresh" / ".balltrack.lock"
        with staged(lock.parent, self.NAMES) as tmps:
            assert lock.read_text() == f"{os.getpid()}\n"
            for tmp in tmps:
                tmp.write_text("new")
        assert not lock.exists()
        assert self._contents(lock.parent) == {name: "new" for name in self.NAMES}

    def test_nested_on_one_directory_raises(self, tmp_path):
        with pytest.raises(DatasetError, match=rf"locked by .*\.balltrack\.lock \(pid {os.getpid()}\)"):
            with staged(tmp_path / "out", self.NAMES):
                with staged(tmp_path / "out", ["other.json"]):
                    pass
        assert self._contents(tmp_path) == {}  # the outer call cleaned up after the inner one raised

    def test_held_lock_raises_and_touches_nothing(self, tmp_path):
        (tmp_path / ".balltrack.lock").write_text("4242\n")
        (tmp_path / ".a.bin.tmp").write_text("the other writer's")
        before = self._contents(tmp_path)
        with pytest.raises(DatasetError, match=r"\(pid 4242\); remove the file if no other run is active$"):
            with staged(tmp_path, self.NAMES):
                pytest.fail("the block ran without the lock")
        assert self._contents(tmp_path) == before

    def test_write_dataset_into_a_locked_directory_raises(self, tmp_path, small_cfg):
        write_dataset(tmp_path, "test", generate_split(small_cfg, "test"), small_cfg)
        (tmp_path / ".balltrack.lock").write_text("4242\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(DatasetError, match=r"locked by .* \(pid 4242\)"):
            write_dataset(tmp_path, "val", generate_split(small_cfg, "val"), small_cfg)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestLazySplit:
    """The split read_dataset returns: truth held, frames read per access."""

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 4), sigma=st.sampled_from((0.0, 1.0)), seed=st.integers(0, 2**63),
           data=st.data())
    def test_indexes_like_the_written_list(self, n, sigma, seed, data):
        cfg = replace(_FUZZ_CFG, n_test=n, noise_sigma=sigma, seed=seed)
        written = generate_split(cfg, "test")
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(tmp, "test", written, cfg)
            split, _ = read_dataset(tmp, "test")
            assert len(split) == n
            assert _split_bytes(split) == _split_bytes(written)  # iteration
            i = data.draw(st.integers(-n, n - 1))
            for index in (i, np.int64(i), np.uint8(i % n)):
                assert _split_bytes([split[index]]) == _split_bytes([written[i]])
            assert _split_bytes([split[i]]) == _split_bytes([split[i]])  # each access reads anew
            assert not any(a.flags.writeable for a in vars(split[i].trajectory).values())
            cut, again = data.draw(st.slices(n)), data.draw(st.slices(n))
            assert _split_bytes(split[cut]) == _split_bytes(written[cut])
            assert _split_bytes(split[cut][again]) == _split_bytes(written[cut][again])
            for index in (n, -n - 1, data.draw(st.integers(n, 2**62)), np.int64(n)):
                with pytest.raises(IndexError):
                    split[index]
            with pytest.raises(TypeError):
                split[0] = written[0]
            with pytest.raises(ValueError):  # the truth is shared by every access
                split[0].trajectory.positions_px[0] = 0.0

    def test_read_allocates_less_than_one_sequence(self, tmp_path, small_cfg):
        write_dataset(tmp_path, "test", generate_split(small_cfg, "test"), small_cfg)
        tracemalloc.start()
        try:
            split, _ = read_dataset(tmp_path, "test")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(split) == small_cfg.n_test
        t, size = small_cfg.frames_per_video, small_cfg.image_size
        assert peak < t * size * size * 4, peak

    @pytest.mark.parametrize("how", ["truncate", "rewrite", "delete"])
    def test_frames_file_changed_after_reading_raises(self, tmp_path, change_frames, how):
        cfg = replace(_FUZZ_CFG, n_test=3)
        write_dataset(tmp_path, "test", generate_split(cfg, "test"), cfg)
        split, _ = read_dataset(tmp_path, "test")
        change_frames(tmp_path, how)  # a cut last byte leaves sequences 0 and 1 whole
        for i in range(len(split)):
            with pytest.raises(DatasetError, match=re.escape(str(tmp_path / "test_frames.bin"))):
                split[i]


class TestStreamedWrite:
    """write_dataset takes each sequence once, as it arrives."""

    def test_read_split_is_read_once_per_sequence(self, tmp_path, monkeypatch):
        import balltrack.video as video

        cfg = replace(_FUZZ_CFG, n_test=3)
        write_dataset(tmp_path / "first", "test", generate_split(cfg, "test"), cfg)
        split, _ = read_dataset(tmp_path / "first", "test")
        reads, real = [], video._read_payload

        def counted(fh, array, path):
            reads.append(path)
            return real(fh, array, path)

        monkeypatch.setattr(video, "_read_payload", counted)
        write_dataset(tmp_path / "second", "test", split, cfg)
        assert len(reads) == 3
        assert {p.name: p.read_bytes() for p in (tmp_path / "second").iterdir()} == \
               {p.name: p.read_bytes() for p in (tmp_path / "first").iterdir()}

    def test_generated_split_is_rendered_once_per_sequence(self, tmp_path, monkeypatch):
        import balltrack.video as video

        cfg = replace(_FUZZ_CFG, n_test=3)
        calls, real = [], video.generate_sequence

        def counted(sequence_cfg, rng):
            calls.append(rng.key)
            return real(sequence_cfg, rng)

        monkeypatch.setattr(video, "generate_sequence", counted)
        write_dataset(tmp_path, "test", generate_split(cfg, "test"), cfg)
        assert calls == [split_stream(cfg, "test", i).key for i in range(3)]

    @pytest.mark.parametrize("target", ["existing", "fresh"])
    def test_failure_part_way_leaves_the_filesystem_as_it_was(self, tmp_path, fail_generation, target):
        cfg = replace(_FUZZ_CFG, n_test=3)
        if target == "existing":  # a split unlike the one the failed write would give
            path = tmp_path
            old = [replace(s, frames=s.frames + 1) for s in generate_split(cfg, "test")]
            write_dataset(path, "test", old, cfg)
        else:
            path = tmp_path / "fresh" / "nested"
        before = {str(p.relative_to(tmp_path)): p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
        fail_generation(cfg, "test", 1)
        with pytest.raises(SimulationError, match="injected simulator fault"):
            write_dataset(path, "test", generate_split(cfg, "test"), cfg)
        assert {str(p.relative_to(tmp_path)): p.is_file() and p.read_bytes()
                for p in tmp_path.rglob("*")} == before

    def test_lazy_split_write_holds_under_two_sequences(self, tmp_path):
        cfg = SimConfig(noise_sigma=1.0, frames_per_video=10, n_test=8)
        one = cfg.frames_per_video * cfg.image_size ** 2 * 4
        tracemalloc.start()
        try:
            write_dataset(tmp_path, "test", generate_split(cfg, "test"), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * one, peak


_RECORD_DTYPES = ("<f4", "<f8", "<u1")


class TestRecordCodec:
    def test_write_does_not_copy_the_payload(self, tmp_path):
        frames = np.ones((40, 224, 224), dtype=np.float32)
        with open(tmp_path / "frames.bin", "wb") as fh:
            tracemalloc.start()
            try:
                _write_record(fh, frames, "<f4")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 0.25 * frames.nbytes
        with open(tmp_path / "frames.bin", "rb") as fh:
            assert _read_record(fh, "<f4", "frames").tobytes() == frames.tobytes()

    @settings(deadline=None)
    @given(data=st.data(), dtype=st.sampled_from(_RECORD_DTYPES))
    def test_round_trip(self, data, dtype):
        shapes = array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5)
        records = data.draw(st.lists(arrays(np.dtype(dtype), shapes), min_size=1, max_size=3))
        fh = io.BytesIO()
        for array in records:
            _write_record(fh, array, dtype)
        fh.seek(0)
        for array in records:
            back = _read_record(fh, dtype, "round-trip")
            assert back.dtype == np.dtype(dtype)
            assert back.shape == array.shape and back.flags.writeable
            assert back.tobytes() == array.tobytes()
        assert fh.read() == b""

    @settings(deadline=None)
    @given(
        tail=st.one_of(
            st.binary(max_size=64),
            st.builds(lambda ndim, rest: struct.pack("<II", FORMAT_VERSION, ndim) + rest,
                      st.integers(0, 2**32 - 1), st.binary(max_size=64)),
            st.builds(lambda dims, rest: struct.pack("<II", FORMAT_VERSION, len(dims))
                      + struct.pack(f"<{len(dims)}Q", *dims) + rest,
                      st.lists(st.integers(0, 2**64 - 1), max_size=5), st.binary(max_size=64)),
        ),
        dtype=st.sampled_from(_RECORD_DTYPES),
    )
    def test_header_fuzz_parses_or_raises_dataset_error(self, tail, dtype):
        fh = io.BytesIO(MAGIC + tail)
        try:
            record = _read_record(fh, dtype, "fuzz")
        except DatasetError:
            return
        assert record.dtype == np.dtype(dtype)

import io
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from balltrack.rng import RandomStream
from balltrack.sim import SimConfig
from balltrack.video import (
    FORMAT_VERSION,
    MAGIC,
    DatasetError,
    FormatVersionError,
    ShapeMismatchError,
    TruncatedFileError,
    generate_sequence,
    generate_split,
    make_noise_image,
    read_dataset,
    render_frame,
    _read_record,
    _write_record,
    split_stream,
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
            residual = seq.frames[t] - clean
            assert np.allclose(residual, seq.noise_image, atol=1e-6)

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
        calls = []

        def failing_record(fh, array, dtype):
            calls.append(dtype)
            if len(calls) == 3:  # the second truth record, after the frames
                raise OSError("disk full")
            fh.write(b"partial")

        monkeypatch.setattr(video, "_write_record", failing_record)
        other = generate_split(small_cfg, "val")
        with pytest.raises(OSError):
            write_dataset(tmp_path, "test", other, small_cfg)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        monkeypatch.undo()
        loaded, _ = read_dataset(tmp_path, "test")
        for a, b in zip(generate_split(small_cfg, "test"), loaded):
            assert a.frames.tobytes() == b.frames.tobytes()

    def test_missing_split_names_the_listed_splits(self, tmp_path, small_cfg):
        for split in ("train", "val"):
            write_dataset(tmp_path, split, generate_split(small_cfg, split), small_cfg)
        with pytest.raises(DatasetError, match=r"no 'test' split.*lists: train, val"):
            read_dataset(tmp_path, "test")

    @pytest.mark.parametrize("change", [{"n_test": 0}, {"colour": 1}])
    def test_invalid_manifest_config_is_dataset_error(self, tmp_path, small_cfg, change):
        import json

        write_dataset(tmp_path, "train", generate_split(small_cfg, "train"), small_cfg)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["config"].update(change)
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match="invalid configuration"):
            read_dataset(tmp_path, "train")

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


_RECORD_DTYPES = ("<f4", "<f8", "<u1")


class TestRecordCodec:
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
            assert back.shape == array.shape
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

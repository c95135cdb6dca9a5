import hashlib
import io
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from balltrack.rng import RandomStream
from balltrack.sim import SimConfig
from balltrack.video import (
    FORMAT_VERSION,
    MAGIC,
    SPLITS,
    DatasetError,
    FormatVersionError,
    ShapeMismatchError,
    TrailingBytesError,
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
        for listed in (len(seqs) - 1, str(len(seqs))):  # a string count is no count, not a TypeError
            meta["splits"]["test"] = listed
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
            if len(calls) == 3:  # the last truth record, after the frames file
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

    def test_write_does_not_stack_the_split(self, tmp_path):
        cfg = SimConfig(noise_sigma=1.0, frames_per_video=10, n_test=8)
        seqs = generate_split(cfg, "test")
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
        seqs = generate_split(small_cfg, "test")
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
        seqs = generate_split(small_cfg, "test")
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

    @pytest.mark.parametrize("change", [{"n_test": 0}, {"colour": 1}, {"noise_sigma": float("nan")}])
    def test_invalid_manifest_config_is_dataset_error(self, tmp_path, small_cfg, change):
        import json

        write_dataset(tmp_path, "train", generate_split(small_cfg, "train"), small_cfg)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["config"].update(change)
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match="invalid configuration"):
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
# sequences).  Sigma=1 is left out on purpose: its Box-Muller noise goes
# through np.log/cos/sin, whose last-bit rounding may differ across CPUs and
# numpy builds, whereas sigma=0 needs only integer hashing and the correctly
# rounded IEEE +, -, *, /.
_GOLDEN_SHA256 = {
    "meta.json": "d113d9da618059966efa528566152755607f2e01ec15145c446b80117426633c",
    "test_frames.bin": "3327c41954440ab6786a1cd8bedf291a24e34388a11ce13abec039e9d221ed8e",
    "test_truth.bin": "06a98c2ae9479387f4ec538315a3af0bbbc44080342abafda2653ef09d5c7d92",
    "train_frames.bin": "c613fc1ca9ce25756ff25cdad8797ef077ae43e6dbfe68a38c5b30f07233c800",
    "train_truth.bin": "2ab0866ac25ca7aaa16c3cd77b11d99679794542dc08edd989d6edc59cd1d7d4",
    "val_frames.bin": "126515ad94dad141766672101dddb81f8cb5ef7a6af952bf03a0f44e6f067d8a",
    "val_truth.bin": "2bdadfbddb1923f891169a06c979db7abf9f86832b7f7486865dfd841830ded6",
}


class TestGoldenBytes:
    def test_sigma_zero_dataset_matches_recorded_digests(self, tmp_path):
        cfg = SimConfig(noise_sigma=0.0, seed=42, frames_per_video=12, n_train=2, n_val=1, n_test=2)
        for split in SPLITS:
            write_dataset(tmp_path, split, generate_split(cfg, split), cfg)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == _GOLDEN_SHA256


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
    return path, files, read_dataset(path, "test")


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

import errno
import filecmp
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import balltrack
from balltrack import autodiff as ad
from balltrack.cli import _SIM_FLAGS, _config_from_args, _sigma_dir, build_parser, main
from balltrack.factorial import contrast_sign, enumerate_configs
from balltrack.physics import physics_refine_window
from balltrack.sim import SimConfig
from balltrack.tracker import METRICS, track_split
from balltrack.video import (DatasetError, _read_record, _write_record, generate_split, read_dataset, staged,
                             write_dataset)

from reference_tables import TRACK_SEED_7_DIGESTS, TRACK_SEED_42_METRICS, assert_pinned, multiply_kernel


GEN_SMALL = ["--train", "2", "--val", "1", "--test", "2", "--frames", "10"]


def _gen(out, *extra):
    return main(["gen", "--out", str(out), "--sigma", "0", *GEN_SMALL, *extra])


def _planted_csv(path, coefficients=None, n_reps=2, drop=None):
    coefficients = coefficients or {"A": 2.0, "BC": -1.0}
    lines = ["config,replicate,metric,value"]
    for config in enumerate_configs():
        y = 3.0 + sum(c * contrast_sign(config, t) for t, c in coefficients.items())
        for rep in range(n_reps):
            if drop and (config.label, rep) == drop:
                continue
            for metric in METRICS:
                lines.append(f"{config.label},{rep},{metric},{y}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _snapshot(root):
    """Every file under ``root``: relative name -> (size, bytes)."""
    return {str(p.relative_to(root)): (p.stat().st_size, p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestGen:
    def test_writes_all_splits_and_manifest(self, tmp_path):
        assert _gen(tmp_path / "d") == 0
        root = tmp_path / "d" / "sigma_0"
        for split in ("train", "val", "test"):
            assert (root / f"{split}_frames.bin").exists()
            assert (root / f"{split}_truth.bin").exists()
        assert (root / "meta.json").exists()
        manifest = json.loads((tmp_path / "d" / "gen_manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["config"]["seed"] == 42
        meta = json.loads((root / "meta.json").read_text())["config"]
        assert {name: manifest["config"][name] for name, _ in _SIM_FLAGS.values()} == \
            {name: meta[name] for name, _ in _SIM_FLAGS.values()}

    def test_manifest_lists_every_file_written(self, tmp_path):
        out = tmp_path / "d"
        main(["gen", "--out", str(out), "--sigma", "0", "--sigma", "1", *GEN_SMALL])
        outputs = json.loads((out / "gen_manifest.json").read_text())["outputs"]
        assert len(outputs) == len(set(outputs)) == 14
        assert sorted(outputs) == sorted(str(p) for p in out.rglob("*")
                                         if p.is_file() and p.name != "gen_manifest.json")

    def test_repeated_calls_keep_their_own_sigmas(self, tmp_path):
        # one parser serves every call in a process; each call's --sigma list is its own
        assert build_parser() is build_parser()
        for name, sigma in (("a", "0"), ("b", "1")):
            assert main(["gen", "--out", str(tmp_path / name), "--sigma", sigma, *GEN_SMALL]) == 0
        configs = [json.loads((tmp_path / name / "gen_manifest.json").read_text())["config"] for name in "ab"]
        assert [config["sigma"] for config in configs] == [[0.0], [1.0]]
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == ["gen_manifest.json", "sigma_1"]

    def test_both_sigma_levels(self, tmp_path):
        main(["gen", "--out", str(tmp_path / "d"), "--sigma", "0", "--sigma", "1", *GEN_SMALL])
        assert (tmp_path / "d" / "sigma_0").is_dir()
        assert (tmp_path / "d" / "sigma_1").is_dir()

    def test_identical_reruns_bit_identical(self, tmp_path):
        _gen(tmp_path / "a")
        _gen(tmp_path / "b")
        for name in ("meta.json", "train_frames.bin", "train_truth.bin",
                     "test_frames.bin", "test_truth.bin"):
            assert filecmp.cmp(tmp_path / "a" / "sigma_0" / name,
                               tmp_path / "b" / "sigma_0" / name, shallow=False)

    def test_two_frames_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="^error: invalid configuration: "):
            main(["gen", "--out", str(tmp_path / "d"), "--sigma", "0", "--frames", "2"])
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag", ["--train", "--val", "--test"])
    def test_empty_split_rejected_before_writing(self, tmp_path, flag):
        with pytest.raises(SystemExit, match="invalid configuration"):
            _gen(tmp_path / "d", flag, "0")  # argparse keeps the last value
        assert not (tmp_path / "d").exists()

    def test_invalid_later_sigma_rejected_before_writing(self, tmp_path):
        with pytest.raises(SystemExit, match="noise_sigma must be non-negative"):
            _gen(tmp_path / "d", "--sigma", "-1")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("sigmas", [("0.1234561", "0.1234562"), ("1", "1.0"), ("-0", "0")])
    def test_sigmas_sharing_a_directory_rejected_before_writing(self, tmp_path, sigmas):
        argv = ["gen", "--out", str(tmp_path / "d"), *GEN_SMALL]
        for sigma in sigmas:
            argv += ["--sigma", sigma]
        given = re.escape(f"--sigma {float(sigmas[0])} and --sigma {float(sigmas[1])}")  # each as given
        with pytest.raises(SystemExit, match=rf"^error: {given} both map to .*sigma_[0-9p]+$"):
            main(argv)
        assert not (tmp_path / "d").exists()

    def test_negative_zero_sigma_writes_the_clean_dataset(self, tmp_path):
        assert _gen(tmp_path / "a") == 0
        assert main(["gen", "--out", str(tmp_path / "b"), "--sigma", "-0", *GEN_SMALL]) == 0
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == ["gen_manifest.json", "sigma_0"]
        assert _snapshot(tmp_path / "b" / "sigma_0") == _snapshot(tmp_path / "a" / "sigma_0")

    def test_dataset_of_another_config_rejected_before_writing(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen", "--out", str(out), "--sigma", "1", "--seed", "1", *GEN_SMALL]) == 0
        before = _snapshot(out)
        with pytest.raises(SystemExit, match=r"sigma_1: directory already holds a dataset with a different"):
            main(["gen", "--out", str(out), "--sigma", "0", "--sigma", "1", *GEN_SMALL])
        assert _snapshot(out) == before

    def test_failure_part_way_through_a_split_reported(self, tmp_path, fail_generation):
        out = tmp_path / "d"
        cfg = _config_from_args(build_parser().parse_args(["gen", *GEN_SMALL, "--train", "3"]), 0.0)
        fail_generation(cfg, "train", 1)
        with pytest.raises(SystemExit, match=r"^error: injected simulator fault$"):
            _gen(out, "--train", "3")
        assert not out.exists()  # nor the lock or the sigma directory in it

    def test_failure_in_a_later_split_keeps_the_splits_written(self, tmp_path, fail_generation):
        # the set is incomplete, not wrong: meta.json lists only the splits on disk
        argv = ["--sigma", "0", "--train", "2", "--val", "2", "--test", "2", "--frames", "4"]
        assert main(["gen", "--out", str(tmp_path / "clean"), *argv]) == 0
        fail_generation(_config_from_args(build_parser().parse_args(["gen", *argv]), 0.0), "val", 1)
        out = tmp_path / "d"
        with pytest.raises(SystemExit, match=r"^error: injected simulator fault$"):
            main(["gen", "--out", str(out), *argv])
        assert not (out / "gen_manifest.json").exists()
        data, clean = out / "sigma_0", tmp_path / "clean" / "sigma_0"
        assert json.loads((data / "meta.json").read_text())["splits"] == {"train": 2}
        assert sorted(p.name for p in data.iterdir()) == ["meta.json", "train_frames.bin", "train_truth.bin"]
        for name in ("train_frames.bin", "train_truth.bin"):
            assert (data / name).read_bytes() == (clean / name).read_bytes()
        got, want = ([[np.asarray(a).tobytes() for a in (s.frames, *vars(s.trajectory).values())]
                      for s in read_dataset(d, "train")[0]] for d in (data, clean))
        assert got == want and len(got) == 2
        with pytest.raises(DatasetError, match=r"no 'val' split .*; the manifest lists: train$"):
            read_dataset(data, "val")

    def test_memory_does_not_grow_with_the_split(self, tmp_path):
        code = ("import resource, sys\n"
                "from balltrack.cli import main\n"
                "main(sys.argv[1:])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        src = str(Path(balltrack.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def peak_rss(n):
            argv = ["gen", "--out", str(tmp_path / str(n)), "--sigma", "1", "--train", "1", "--val", "1",
                    "--test", str(n)]
            run = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, timeout=120,
                                 capture_output=True, text=True)
            return int(run.stdout.split()[-1])

        peaks = [peak_rss(n) for n in (4, 16, 48)]
        assert max(peaks) <= 1.1 * min(peaks), peaks

    def test_lock_file_blocks_concurrent_use(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / ".balltrack.lock").touch()
        with pytest.raises(SystemExit, match=r"^error: output directory is locked by .*\.balltrack\.lock "
                                             r"\(pid unknown\); remove the file if no other run is active$"):
            _gen(out)
        assert _snapshot(tmp_path) == {"d/.balltrack.lock": (0, b"")}


    def test_lock_conflict_names_the_owner_pid(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / ".balltrack.lock").write_text("4242\n")
        with pytest.raises(SystemExit, match="pid 4242"):
            _gen(out)

    def test_lock_file_holds_own_pid(self, tmp_path):
        lock = tmp_path / ".balltrack.lock"
        with staged(tmp_path, ["gen_manifest.json"]) as (manifest,):
            assert lock.read_text().strip() == str(os.getpid())
            manifest.write_text("{}")
        assert not lock.exists()

    def test_lock_removed_when_its_pid_cannot_be_written(self, tmp_path, monkeypatch):
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fdopen(fd, *args, **kwargs):
            os.close(fd)
            return FullDisk()

        out = tmp_path / "d"
        monkeypatch.setattr(os, "fdopen", fdopen)
        with pytest.raises(SystemExit, match="^error: No space left on device$"):
            _gen(out)
        monkeypatch.undo()
        assert not out.exists()  # no empty lock to stop the next run
        assert _gen(out) == 0


# one valid non-default value per gen flag
_FLAG_VALUES = {"--image-size": "128", "--scale": "0.03", "--dt": "0.05", "--gravity": "9.0",
                "--restitution": "0.5", "--radius": "3.0", "--vmax": "10.0", "--frames": "20",
                "--seed": "7", "--train": "3", "--val": "4", "--test": "5"}


class TestSimFlags:
    def test_every_flag_has_a_value(self):
        assert set(_FLAG_VALUES) == set(_SIM_FLAGS)

    @pytest.mark.parametrize("flag", sorted(_FLAG_VALUES))
    def test_flag_sets_its_field(self, flag):
        args = build_parser().parse_args(["gen", flag, _FLAG_VALUES[flag]])
        cfg = _config_from_args(args, 0.5)
        name = _SIM_FLAGS[flag][0]
        assert getattr(cfg, name) == type(getattr(SimConfig(), name))(_FLAG_VALUES[flag])
        assert cfg == replace(SimConfig(noise_sigma=0.5), **{name: getattr(cfg, name)})

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_no_flags_give_default_config(self, sigma):
        args = build_parser().parse_args(["gen"])
        assert _config_from_args(args, sigma) == SimConfig(noise_sigma=sigma)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    main(["gen", "--out", str(out), "--sigma", "0", *GEN_SMALL])
    return out / "sigma_0"


@pytest.fixture(scope="module")
def seed_42_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed42")
    main(["gen", "--out", str(out), "--train", "1", "--val", "1", "--test", "4", "--seed", "42",
          "--sigma", "0", "--sigma", "1"])
    return out


@pytest.fixture(scope="module")
def seed_7_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed7")
    main(["gen", "--out", str(out), "--train", "1", "--val", "1", "--test", "3", "--frames", "12", "--seed", "7",
          "--sigma", "0", "--sigma", "1"])
    return out


class TestOutRoot:
    """Without ``--out``, gen, track and effects write to ``$BALLTRACK_OUT/<name>``;
    an ``--out`` that cannot be a directory is reported, not raised."""

    @staticmethod
    def _argv(command, small_dataset, tmp_path):
        if command == "effects":
            return ["effects", "--results", str(_planted_csv(tmp_path / "results.csv"))]
        return {"gen": ["gen", "--sigma", "0", *GEN_SMALL],
                "track": ["track", "--data", str(small_dataset)]}[command]

    @pytest.mark.parametrize("command, name", [("gen", "dataset"), ("track", "results"),
                                               ("effects", "effects")])
    def test_set_root_holds_the_outputs(self, small_dataset, tmp_path, monkeypatch, command, name):
        monkeypatch.setenv("BALLTRACK_OUT", str(tmp_path / "root"))
        assert main(self._argv(command, small_dataset, tmp_path)) == 0
        assert (tmp_path / "root" / name / f"{command}_manifest.json").is_file()

    @pytest.mark.parametrize("command", ["gen", "track", "effects"])
    def test_manifest_names_the_platform(self, small_dataset, tmp_path, command):
        import platform

        import scipy

        out = tmp_path / "o"
        assert main([*self._argv(command, small_dataset, tmp_path), "--out", str(out)]) == 0
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        assert manifest["platform"] == {"python": platform.python_version(), "numpy": np.__version__,
                                        "scipy": scipy.__version__, "complex128_multiply": multiply_kernel()}

    @pytest.mark.parametrize("command", ["gen", "track", "effects"])
    def test_unset_root_is_an_error(self, small_dataset, tmp_path, monkeypatch, command):
        monkeypatch.delenv("BALLTRACK_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=r"^error: --out not given and \$BALLTRACK_OUT is unset$"):
            main(self._argv(command, small_dataset, tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == (["results.csv"] if command == "effects" else [])

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["gen", "track", "effects"])
    def test_out_naming_a_file_reported(self, small_dataset, tmp_path, command, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        out = blocker / "sub" if under else blocker
        argv = self._argv(command, small_dataset, tmp_path)
        before = _snapshot(tmp_path)
        reason = os.strerror(errno.ENOTDIR if under else errno.EEXIST)
        with pytest.raises(SystemExit, match=rf"^error: {re.escape(str(out))}: {reason}$"):
            main([*argv, "--out", str(out)])
        assert _snapshot(tmp_path) == before


class TestTrack:
    def test_metrics_csv_has_all_rows(self, small_dataset, tmp_path):
        out = tmp_path / "res"
        assert main(["track", "--data", str(small_dataset), "--split", "test",
                     "--out", str(out), "--config-label", "A0B0C1D0E0F0",
                     "--replicate", "1"]) == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "config,replicate,metric,value"
        assert len(lines) == 1 + len(METRICS) == 16
        assert all(ln.startswith("A0B0C1D0E0F0,1,") for ln in lines[1:])
        assert (out / "predictions.bin").exists()
        assert (out / "track_manifest.json").exists()

    def test_predictions_file_reads_back_as_records(self, small_dataset, tmp_path):
        # the file, header by header: scales 56, 112, 224, and per scale B, H, P
        # and V as (N, T-2, 3, 2) f8 records, then bounce as an (N, T-2, 3) u1
        # one, each holding the array track_split returns
        out = tmp_path / "res"
        assert main(["track", "--data", str(small_dataset), "--out", str(out)]) == 0
        sequences, cfg = read_dataset(small_dataset, "test")
        _, predictions = track_split(sequences, cfg)
        data = (out / "predictions.bin").read_bytes()
        n, windows = 2, 10 - 2  # GEN_SMALL: 2 test sequences of 10 frames
        vectors, flags = (n, windows, 3, 2), (n, windows, 3)
        at = 0
        for scale in (56, 112, 224):
            for name, dtype, shape in (("B", "<f8", vectors), ("H", "<f8", vectors), ("P", "<f8", vectors),
                                       ("V", "<f8", vectors), ("bounce", "<u1", flags)):
                magic, version, ndim = struct.unpack_from("<4sII", data, at)
                assert (magic, version, struct.unpack_from(f"<{ndim}Q", data, at + 12)) == (b"PITD", 1, shape)
                at += 12 + 8 * ndim
                payload = data[at:at + math.prod(shape) * np.dtype(dtype).itemsize]
                assert np.all(np.isfinite(predictions[scale][name]))
                assert payload == np.asarray(predictions[scale][name], dtype).tobytes(), (scale, name)
                at += len(payload)
        assert at == len(data)

    def test_per_sequence_metrics_average_to_metrics_csv(self, small_dataset, tmp_path):
        out = tmp_path / "res"
        assert main(["track", "--data", str(small_dataset), "--out", str(out)]) == 0
        header, *rows = (out / "per_sequence_metrics.csv").read_text().splitlines()
        assert header == ",".join(("sequence", *METRICS))
        assert [row.split(",")[0] for row in rows] == ["0", "1"]  # GEN_SMALL: 2 test sequences
        columns = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        written = {ln.split(",")[2]: float(ln.split(",")[3])
                   for ln in (out / "metrics.csv").read_text().splitlines()[1:]}
        for metric, column in zip(METRICS, columns.T):
            assert float(np.mean(column)) == written[metric]
        manifest = json.loads((out / "track_manifest.json").read_text())
        assert str(out / "per_sequence_metrics.csv") in manifest["outputs"]

    def test_frame_count_not_of_the_config_reported(self, tmp_path):
        data = tmp_path / "d"
        cfg = SimConfig(frames_per_video=3, image_size=32, n_test=2)
        seqs = generate_split(cfg, "test")
        write_dataset(data, "test", seqs, cfg)
        with open(data / "test_frames.bin", "wb") as fh:
            _write_record(fh, np.stack([s.frames[:2] for s in seqs]), "<f4")
        with open(data / "test_truth.bin", "wb") as fh:
            for attr, dtype in (("positions_px", "<f8"), ("velocities_fu", "<f8"), ("bounce_flags", "<u1")):
                _write_record(fh, np.stack([getattr(s.trajectory, attr)[:2] for s in seqs]), dtype)
        out = tmp_path / "o"
        with pytest.raises(SystemExit, match=r"^error: .*records of shapes \(\(2, 2, 32, 32\)"):
            main(["track", "--data", str(data), "--out", str(out)])
        assert not out.exists()

    def test_zero_sequence_split_reported(self, zero_sequence_split, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(SystemExit, match=r"^error: .*shapes \(\(0, 12, 224, 224\).* 0 sequences"):
            main(["track", "--data", str(zero_sequence_split), "--out", str(out)])
        assert not out.exists()

    def test_hard_argmax_and_bounce_predictions_match_recorded_digest(self, tmp_path):
        # sha256 of the H and bounce records of every scale (records 1, 4, 6, 9, 11
        # and 14 of predictions.bin) for the sigma=0 dataset of
        # test_video.TestGoldenBytes.  H is an integer argmax and the bounce flags
        # are comparisons, so their bytes do not move when a refactor changes the
        # float rounding of B, P and V in the last bits; those three are left out.
        cfg = SimConfig(noise_sigma=0.0, seed=42, frames_per_video=12, n_train=2, n_val=1, n_test=2)
        write_dataset(tmp_path / "d", "test", generate_split(cfg, "test"), cfg)
        assert main(["track", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "o")]) == 0
        path = tmp_path / "o" / "predictions.bin"
        with open(path, "rb") as fh:
            records = [_read_record(fh, dtype, path) for _ in range(3) for dtype in ("<f8",) * 4 + ("<u1",)]
        digest = hashlib.sha256(b"".join(records[i].tobytes() for i in (1, 4, 6, 9, 11, 14)))
        assert digest.hexdigest() == "29655063fbaf37e70365745ba18d3df623b5557fafd376f64ae1d1c4d0417283"

    @pytest.mark.parametrize("sigma, temporal_mean", list(TRACK_SEED_42_METRICS))
    def test_metrics_csv_holds_the_pinned_values(self, seed_42_dataset, tmp_path, sigma, temporal_mean):
        out = tmp_path / "res"
        flags = ["--temporal-mean"] if temporal_mean else []
        assert main(["track", "--data", str(_sigma_dir(seed_42_dataset, sigma)), "--out", str(out), *flags]) == 0
        written = {ln.split(",")[2]: float(ln.split(",")[3])
                   for ln in (out / "metrics.csv").read_text().splitlines()[1:]}
        assert_pinned(written, TRACK_SEED_42_METRICS[sigma, temporal_mean])

    @pytest.mark.parametrize("sigma, temporal_mean", list(TRACK_SEED_7_DIGESTS))
    def test_outputs_hold_the_pinned_digests(self, seed_7_dataset, tmp_path, sigma, temporal_mean):
        out = tmp_path / "res"
        flags = ["--temporal-mean"] if temporal_mean else []
        assert main(["track", "--data", str(_sigma_dir(seed_7_dataset, sigma)), "--out", str(out), *flags]) == 0
        pinned = TRACK_SEED_7_DIGESTS[sigma, temporal_mean]
        assert_pinned({name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}, pinned)

    def test_failed_rerun_keeps_the_previous_outputs(self, small_dataset, tmp_path, monkeypatch):
        import balltrack.cli

        out = tmp_path / "res"
        assert main(["track", "--data", str(small_dataset), "--out", str(out)]) == 0
        before = _snapshot(out)
        assert sorted(before) == ["metrics.csv", "per_sequence_metrics.csv", "predictions.bin",
                                  "track_manifest.json"]

        def full_disk(path, predictions):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(balltrack.cli, "write_predictions", full_disk)
        with pytest.raises(SystemExit, match="^error: No space left on device$"):
            main(["track", "--data", str(small_dataset), "--out", str(out), "--replicate", "3"])
        assert _snapshot(out) == before  # no temporary file and no lock either

    def test_failed_run_into_a_fresh_out_leaves_no_directory(self, small_dataset, tmp_path, monkeypatch):
        import balltrack.cli

        def full_disk(path, predictions):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(balltrack.cli, "write_predictions", full_disk)
        with pytest.raises(SystemExit, match="^error: No space left on device$"):
            main(["track", "--data", str(small_dataset), "--out", str(tmp_path / "a" / "b")])
        assert not (tmp_path / "a").exists()

    def test_radius_below_one_reported_before_writing(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen", "--out", str(data), "--sigma", "0", "--train", "1", "--val", "1",
                     "--test", "1", "--frames", "4", "--image-size", "32", "--radius", "0.5"]) == 0
        out = tmp_path / "o"
        message = rf"^error: {re.escape(str(data / 'sigma_0'))}: template radius must be >= 1$"
        with pytest.raises(SystemExit, match=message):
            main(["track", "--data", str(data / "sigma_0"), "--out", str(out)])
        assert not out.exists()

    def test_temporal_mean_flag(self, small_dataset, tmp_path):
        out = tmp_path / "res2"
        assert main(["track", "--data", str(small_dataset), "--split", "test",
                     "--out", str(out), "--temporal-mean"]) == 0
        assert (out / "metrics.csv").exists()

    def test_missing_dataset_errors(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["track", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert "manifest" in str(err.value)

    def test_missing_split_reported(self, tmp_path, small_cfg):
        data = tmp_path / "partial"
        for split in ("train", "val"):
            write_dataset(data, split, generate_split(small_cfg, split), small_cfg)
        with pytest.raises(SystemExit, match=r"^error: .*no 'test' split.*lists: train, val"):
            main(["track", "--data", str(data), "--out", str(tmp_path / "o")])

    def test_version_mismatch_reported(self, small_dataset, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(small_dataset, broken)
        blob = bytearray((broken / "test_frames.bin").read_bytes())
        blob[4] = 9
        (broken / "test_frames.bin").write_bytes(bytes(blob))
        with pytest.raises(SystemExit) as err:
            main(["track", "--data", str(broken), "--out", str(tmp_path / "o")])
        assert "version" in str(err.value)

    @pytest.mark.parametrize("manifest", ['{"format_version": 1, "conf', "[]",
                                          '{"format_version": 1}'],
                             ids=["truncated", "list", "no-config"])
    def test_corrupt_manifest_reported(self, small_dataset, tmp_path, manifest):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(small_dataset, broken)
        (broken / "meta.json").write_text(manifest)
        with pytest.raises(SystemExit, match=r"^error: .*meta.json"):
            main(["track", "--data", str(broken), "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()

    def test_image_size_not_divisible_by_four_reported(self, tmp_path):
        data = tmp_path / "d"
        assert main(["gen", "--out", str(data), "--sigma", "0", "--train", "1", "--val", "1",
                     "--test", "1", "--frames", "4", "--image-size", "30"]) == 0
        out = tmp_path / "o"
        message = rf"^error: {re.escape(str(data / 'sigma_0'))}: image size 30 is not divisible by 4, "
        with pytest.raises(SystemExit, match=message):
            main(["track", "--data", str(data / "sigma_0"), "--out", str(out)])
        assert not out.exists()

    def test_non_finite_frame_reported_before_writing(self, small_dataset, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(small_dataset, broken)
        sequences, cfg = read_dataset(broken, "test")
        sequences = list(sequences)  # the split read is read-only
        frames = sequences[1].frames.copy()
        frames[3, 0, 0] = np.nan
        sequences[1] = replace(sequences[1], frames=frames)
        write_dataset(broken, "test", sequences, cfg)
        out = tmp_path / "o"
        message = rf"^error: {re.escape(str(broken))}: frame 3 holds a non-finite pixel$"
        with pytest.raises(SystemExit, match=message):
            main(["track", "--data", str(broken), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("how", ["truncate", "rewrite"])
    def test_frames_changed_after_reading_reported_before_writing(self, small_dataset, tmp_path,
                                                                  monkeypatch, change_frames, how):
        import shutil

        import balltrack.cli

        data = tmp_path / "data"
        shutil.copytree(small_dataset, data)

        def read_then_change(path, split):
            read = read_dataset(path, split)
            change_frames(path, how, split)
            return read

        monkeypatch.setattr(balltrack.cli, "read_dataset", read_then_change)
        out = tmp_path / "o"
        message = rf"^error: {re.escape(str(data / 'test_frames.bin'))}: the file changed after its split was read$"
        with pytest.raises(SystemExit, match=message):
            main(["track", "--data", str(data), "--out", str(out)])
        assert not out.exists()

    def test_padded_config_label_written_canonical(self, small_dataset, tmp_path):
        out = tmp_path / "o"
        assert main(["track", "--data", str(small_dataset), "--out", str(out),
                     "--config-label", " A1B0C0D0E0F1"]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert {ln.split(",")[0] for ln in rows} == {"A1B0C0D0E0F1"}

    @pytest.mark.parametrize("label", ["bogus", "A0B0C0D0E0F2", "A0B0C0D0E0"])
    def test_bad_config_label_is_usage_error(self, small_dataset, tmp_path, capsys, label):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            main(["track", "--data", str(small_dataset), "--out", str(out), "--config-label", label])
        assert err.value.code == 2
        assert f"argument --config-label: bad config label '{label}'" in capsys.readouterr().err
        assert not out.exists()


# wrong physics kernels, each put in place of selfcheck's physics_refine_window
def _doubled_gravity(landmarks, params):
    return physics_refine_window(landmarks, replace(params, g_frame=2 * params.g_frame))


def _value_only(landmarks, params):
    return physics_refine_window(ad.value(landmarks), params)


def _shifted_1px(landmarks, params):
    win = physics_refine_window(landmarks, params)
    return replace(win, positions_px=win.positions_px + 1.0)


class TestSelfcheck:
    def test_passes_and_prints_constant_check(self, capsys):
        assert main(["selfcheck", "--trials", "8"]) == 0
        out = capsys.readouterr().out
        assert "g_frame=0.7848" in out
        assert "FAIL" not in out

    def test_loss_gradient_checks_evaluate_probes(self, capsys):
        assert main(["selfcheck", "--trials", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for loss in ("consistency", "supervised"):
            line = next(ln for ln in lines if f"physics {loss} loss" in ln)
            match = re.search(r": (\d+) probes,", line)
            assert match and int(match.group(1)) > 0, line

    def test_zero_trials_fail_every_gradient_check(self, capsys):
        assert main(["selfcheck", "--trials", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        gradients = [ln for ln in lines if "gradients:" in ln]
        assert len(gradients) == 7
        assert all(ln.startswith("[FAIL]") and ln.endswith(": 0 probes, max rel err 0.000e+00")
                   for ln in gradients)
        assert lines[-1] == "3/10 checks passed"

    def test_loss_checks_fail_when_every_probe_sits_on_a_kink(self, monkeypatch):
        from balltrack import selfcheck

        monkeypatch.setattr(selfcheck, "_l1_kink_margin",
                            lambda x, *rest: np.zeros(len(x)))
        results = {name: (passed, detail) for name, passed, detail in
                   selfcheck.check_gradients(trials=4)}
        for loss in ("consistency", "supervised"):
            passed, detail = results[f"gradients: physics {loss} loss"]
            assert not passed and detail == "0 probes, max rel err 0.000e+00"
        assert results["gradients: physics window"][0]

    @pytest.mark.parametrize("trials", ["-1", "-100"])
    def test_negative_trials_is_usage_error(self, capsys, trials):
        with pytest.raises(SystemExit) as err:
            main(["selfcheck", "--trials", trials])
        assert err.value.code == 2
        assert f"argument --trials: must be >= 0, got {trials}" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel, failing", [
        (_doubled_gravity, {"parabola fixed point"}),
        (_value_only, {"gradients: physics window", "gradients: physics consistency loss",
                       "gradients: physics supervised loss"}),
        (_shifted_1px, {"parabola fixed point", "unit scaling consistency"}),
    ], ids=["doubled_gravity", "value_only", "shifted_1px"])
    def test_wrong_kernel_in_the_module_binding_fails_its_checks(self, monkeypatch, kernel, failing):
        # every check reads the kernel from balltrack.selfcheck when it runs;
        # together the three wrong kernels fail all five checks that call it,
        # and frame units and the four operator checks pass throughout
        from balltrack import selfcheck

        monkeypatch.setattr(selfcheck, "physics_refine_window", kernel)
        results = selfcheck.run_all(trials=4)
        assert len(results) == 10
        assert {name for name, passed, _ in results if not passed} == failing

    def test_no_hidden_kernel_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["selfcheck", "--inject-broken-kernel"])
        assert err.value.code == 2
        assert "unrecognized arguments: --inject-broken-kernel" in capsys.readouterr().err


class TestEffects:
    def test_planted_model_recovered(self, tmp_path, capsys):
        csv = _planted_csv(tmp_path / "results.csv")
        out = tmp_path / "fx"
        assert main(["effects", "--results", str(csv), "--out", str(out)]) == 0
        rows = (out / "effects.csv").read_text().strip().splitlines()
        assert rows[0] == "term,metric,effect"
        values = {}
        for ln in rows[1:]:
            term, metric, effect = ln.split(",")
            values[(term, metric)] = float(effect)
        assert values[("A", "B224")] == pytest.approx(4.0, abs=1e-12)
        assert values[("BC", "B224")] == pytest.approx(-2.0, abs=1e-12)
        assert values[("DF", "B224")] == pytest.approx(0.0, abs=1e-12)
        # 63 terms x (15 metrics + 2 aggregates)
        assert len(rows) - 1 == 63 * 17
        report = (out / "effects_report.txt").read_text()
        assert "encoder" in report and "decoder" in report

    def test_report_skips_a_group_without_its_metrics(self, tmp_path, capsys):
        csv = _planted_csv(tmp_path / "results.csv")
        keep = ("metric", "B56", "H56", "P56")  # the header and the encoder group
        csv.write_text("".join(ln + "\n" for ln in csv.read_text().splitlines() if ln.split(",")[2] in keep))
        out = tmp_path / "fx"
        assert main(["effects", "--results", str(csv), "--out", str(out)]) == 0
        report = (out / "effects_report.txt").read_text()
        assert report.startswith("Top effects, encoder (56-scale metrics)")
        assert report.count("Top effects") == 1 and "decoder" not in report
        assert capsys.readouterr().out == report + "\n"
        # no decoder metrics, so no aggregates: 63 terms x 3 metrics
        assert len((out / "effects.csv").read_text().splitlines()) - 1 == 63 * 3

    def test_effects_csv_byte_stable(self, tmp_path):
        csv = _planted_csv(tmp_path / "results.csv")
        out_a = tmp_path / "fx_a"
        out_b = tmp_path / "fx_b"
        main(["effects", "--results", str(csv), "--out", str(out_a)])
        main(["effects", "--results", str(csv), "--out", str(out_b)])
        assert (out_a / "effects.csv").read_bytes() == (out_b / "effects.csv").read_bytes()

    # sha256 of effects.csv and effects_report.txt for _seeded_rows(), n = 4
    EFFECTS_DIGESTS = {
        "effects.csv": "ddcb9aff9d48f768127d5388577fffcff362ce256610211816225b5b3908d981",
        "effects_report.txt": "f4098984b91022b51dc76445bd49b5219b53e629819b1a9b44ba95e902b0746d",
    }

    @staticmethod
    def _seeded_rows(seed=4, n_reps=4):
        """Results rows of uniform random values for the full design, shuffled."""
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 5.0, (64, n_reps, len(METRICS)))
        rows = [f"{c.label},{r},{m},{float(values[c.index, r, k])!r}" for c in enumerate_configs()
                for r in range(n_reps) for k, m in enumerate(METRICS)]
        return [rows[i] for i in rng.permutation(len(rows))]

    @pytest.mark.parametrize("layout", ["plain", "padded-crlf"])
    def test_effects_outputs_pinned(self, tmp_path, capsys, layout):
        rows = self._seeded_rows()
        if layout == "plain":
            text = "config,replicate,metric,value\n" + "".join(r + "\n" for r in rows)
        else:
            text = " config , replicate,metric ,value\r\n" + "".join(
                " " + r.replace(",", " ,\t") + " \r\n" for r in rows)
        csv = tmp_path / "results.csv"
        csv.write_bytes(text.encode())
        assert main(["effects", "--results", str(csv), "--out", str(tmp_path / "fx")]) == 0
        for name, digest in self.EFFECTS_DIGESTS.items():
            assert hashlib.sha256((tmp_path / "fx" / name).read_bytes()).hexdigest() == digest, name

    def test_failed_rerun_keeps_the_previous_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "fx"
        assert main(["effects", "--results", str(_planted_csv(tmp_path / "a.csv")), "--out", str(out)]) == 0
        before = _snapshot(out)
        assert sorted(before) == ["effects.csv", "effects_manifest.json", "effects_report.txt"]
        real = Path.write_text

        def full_disk(path, *args, **kwargs):
            if "effects_report" in path.name:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        other = _planted_csv(tmp_path / "b.csv", {"A": -1.0, "DF": 3.0})  # another effects.csv
        with pytest.raises(SystemExit, match="^error: No space left on device$"):
            main(["effects", "--results", str(other), "--out", str(out)])
        assert _snapshot(out) == before  # no temporary file and no lock either

    def test_failed_run_into_a_fresh_out_leaves_no_directory(self, tmp_path, monkeypatch):
        real = Path.write_text

        def full_disk(path, *args, **kwargs):
            if "effects_report" in path.name:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(path, *args, **kwargs)

        csv = _planted_csv(tmp_path / "results.csv")
        monkeypatch.setattr(Path, "write_text", full_disk)
        with pytest.raises(SystemExit, match="^error: No space left on device$"):
            main(["effects", "--results", str(csv), "--out", str(tmp_path / "a" / "b")])
        assert not (tmp_path / "a").exists()

    def test_missing_cell_named_in_error(self, tmp_path):
        csv = _planted_csv(tmp_path / "bad.csv", drop=("A1B0C1D0E0F1", 1))
        with pytest.raises(SystemExit) as err:
            main(["effects", "--results", str(csv), "--out", str(tmp_path / "fx")])
        assert "A1B0C1D0E0F1" in str(err.value)

    def test_incomplete_grid_reported_before_writing(self, tmp_path):
        csv = _planted_csv(tmp_path / "results.csv", n_reps=1, drop=("A1B0C0D0E0F0", 0))
        with pytest.raises(SystemExit, match=r"^error: incomplete design grid: metric 'B112' missing 1 cells: "
                                             r"\(A1B0C0D0E0F0, r0\)$"):
            main(["effects", "--results", str(csv), "--out", str(tmp_path / "fx")])
        assert not (tmp_path / "fx").exists()

    def test_spaces_around_fields_ignored(self, tmp_path):
        csv = _planted_csv(tmp_path / "results.csv")
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(csv.read_text().replace(",", ", "))
        for path, name in ((csv, "fx"), (spaced, "fx_spaced")):
            assert main(["effects", "--results", str(path), "--out", str(tmp_path / name)]) == 0
        for name in ("effects.csv", "effects_report.txt"):
            assert (tmp_path / "fx_spaced" / name).read_bytes() == (tmp_path / "fx" / name).read_bytes()

    def test_duplicated_row_reported_before_writing(self, tmp_path):
        csv = _planted_csv(tmp_path / "results.csv")
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(lines + [lines[5]]) + "\n")
        out = tmp_path / "fx"
        cell = re.escape(f"duplicate cell ({lines[5].split(',')[0]}, r0, {lines[5].split(',')[2]})")
        with pytest.raises(SystemExit, match=rf"^error: {re.escape(str(csv))}: {cell}"):
            main(["effects", "--results", str(csv), "--out", str(out)])
        assert not out.exists()

    def test_supplied_aggregate_reported_before_writing(self, tmp_path):
        csv = _planted_csv(tmp_path / "results.csv")
        csv.write_text(csv.read_text() + "A0B0C0D0E0F0,1,enc_avg,99\n")
        out = tmp_path / "fx"
        cell = re.escape("duplicate cell (A0B0C0D0E0F0, r1, enc_avg)")
        with pytest.raises(SystemExit, match=rf"^error: {re.escape(str(csv))}: {cell}"):
            main(["effects", "--results", str(csv), "--out", str(out)])
        assert not out.exists()

    def test_first_supplied_aggregate_in_design_order_reported(self, tmp_path):
        csv = _planted_csv(tmp_path / "results.csv")
        header, *body = csv.read_text().splitlines()
        supplied = ["A0B1C0D0E0F0,0,enc_avg,99", "A1B0C0D0E0F0,1,enc_avg,99"]
        csv.write_text("\n".join([header, *body[::-1], *supplied]) + "\n")  # rows against design order
        out = tmp_path / "fx"
        cell = re.escape("duplicate cell (A1B0C0D0E0F0, r1, enc_avg)")
        with pytest.raises(SystemExit, match=rf"^error: {re.escape(str(csv))}: {cell}"):
            main(["effects", "--results", str(csv), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "a,b,c,d\n",
                                      "config,replicate,metric,value\nA0B0C0D0E0F0,0,B56\n",
                                      "config,replicate,metric,value\nA0B0C0D0E0F0,x,B56,1.0\n",
                                      "config,replicate,metric,value\nZZ,0,B56,1.0\n"],
                             ids=["missing", "header", "three-fields", "replicate", "label"])
    def test_bad_results_file_reported_before_writing(self, tmp_path, text):
        csv = tmp_path / "results.csv"
        if text is not None:
            csv.write_text(text)
        out = tmp_path / "fx"
        with pytest.raises(SystemExit, match=rf"^error: {re.escape(str(csv))}: "):
            main(["effects", "--results", str(csv), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reported_before_writing(self, tmp_path, value):
        csv = _planted_csv(tmp_path / "results.csv")
        lines = csv.read_text().splitlines()
        lines[7] = lines[7].rsplit(",", 1)[0] + f",{value}"
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fx"
        message = rf"^error: {re.escape(str(csv))}: line 8: value '{value}' is not finite$"
        with pytest.raises(SystemExit, match=message):
            main(["effects", "--results", str(csv), "--out", str(out)])
        assert not out.exists()

    def test_header_only_results_reported_before_writing(self, tmp_path):
        csv = tmp_path / "results.csv"
        csv.write_text("config,replicate,metric,value\n")
        out = tmp_path / "fx"
        with pytest.raises(SystemExit, match=rf"^error: {re.escape(str(csv))}: no data rows$"):
            main(["effects", "--results", str(csv), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("top", ["0", "-60"])
    def test_top_below_one_is_usage_error(self, tmp_path, capsys, top):
        csv = _planted_csv(tmp_path / "results.csv")
        out = tmp_path / "fx"
        with pytest.raises(SystemExit) as err:
            main(["effects", "--results", str(csv), "--out", str(out), "--top", top])
        assert err.value.code == 2
        assert f"argument --top: must be >= 1, got {top}" in capsys.readouterr().err
        assert not out.exists()

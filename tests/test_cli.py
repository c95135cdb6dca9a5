import filecmp
import hashlib
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from balltrack.cli import _OutputLock, _SIM_FLAGS, _config_from_args, build_parser, main
from balltrack.factorial import contrast_sign, enumerate_configs
from balltrack.sim import SimConfig
from balltrack.tracker import METRICS
from balltrack.video import _read_record, _write_record, generate_split, write_dataset


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
        with pytest.raises(SystemExit, match="invalid configuration"):
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

    @pytest.mark.parametrize("sigmas", [("0.1234561", "0.1234562"), ("1", "1.0")])
    def test_sigmas_sharing_a_directory_rejected_before_writing(self, tmp_path, sigmas):
        argv = ["gen", "--out", str(tmp_path / "d"), *GEN_SMALL]
        for sigma in sigmas:
            argv += ["--sigma", sigma]
        with pytest.raises(SystemExit, match=r"both map to .*sigma_"):
            main(argv)
        assert not (tmp_path / "d").exists()

    def test_lock_file_blocks_concurrent_use(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / ".balltrack.lock").touch()
        with pytest.raises(SystemExit):
            _gen(out)


    def test_lock_conflict_names_the_owner_pid(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / ".balltrack.lock").write_text("4242\n")
        with pytest.raises(SystemExit, match="pid 4242"):
            _gen(out)

    def test_lock_file_holds_own_pid(self, tmp_path):
        with _OutputLock(tmp_path) as lock:
            assert lock.path.read_text().strip() == str(os.getpid())
        assert not lock.path.exists()


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
        out = tmp_path / "res"
        assert main(["track", "--data", str(small_dataset), "--out", str(out)]) == 0
        path = out / "predictions.bin"
        records = []
        with open(path, "rb") as fh:
            for _scale in (56, 112, 224):
                for dtype in ("<f8", "<f8", "<f8", "<f8", "<u1"):
                    records.append(_read_record(fh, dtype, path))
            assert fh.read() == b""
        n, windows = 2, 10 - 2  # GEN_SMALL: 2 test sequences of 10 frames
        assert len(records) == 15
        for i, rec in enumerate(records):
            assert rec.shape == ((n, windows, 3) if i % 5 == 4 else (n, windows, 3, 2))
            assert np.all(np.isfinite(rec))
        assert set(np.unique(records[4])) <= {0, 1}

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
        with pytest.raises(SystemExit, match=r"^error: .*image size 30 is not divisible by 4"):
            main(["track", "--data", str(data / "sigma_0"), "--out", str(out)])
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

    def test_broken_kernel_fails(self):
        from balltrack.physics import physics_refine_window
        from balltrack.selfcheck import run_all

        def doubled_gravity(landmarks, params):
            return physics_refine_window(landmarks, replace(params, g_frame=2 * params.g_frame))

        results = {name: passed for name, passed, _ in run_all(trials=4, physics_window=doubled_gravity)}
        assert not results["parabola fixed point"]

    def test_no_hidden_kernel_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["selfcheck", "--inject-broken-kernel"])
        assert err.value.code == 2
        assert "unrecognized arguments: --inject-broken-kernel" in capsys.readouterr().err

    def test_consistency_check_uses_the_given_kernel(self):
        # right values, no derivatives: every check that differentiates
        # through the kernel must notice, the consistency loss included
        from balltrack import autodiff as ad
        from balltrack.physics import physics_refine_window
        from balltrack.selfcheck import check_gradients

        def flat_kernel(landmarks, params):
            return physics_refine_window(ad.value(landmarks), params)

        results = {name: passed for name, passed, _ in
                   check_gradients(trials=4, physics_window=flat_kernel)}
        assert not results["gradients: physics consistency loss"]
        assert not results["gradients: physics window"]
        assert results["gradients: bilinear expectation"]


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

    def test_effects_csv_byte_stable(self, tmp_path):
        csv = _planted_csv(tmp_path / "results.csv")
        out_a = tmp_path / "fx_a"
        out_b = tmp_path / "fx_b"
        main(["effects", "--results", str(csv), "--out", str(out_a)])
        main(["effects", "--results", str(csv), "--out", str(out_b)])
        assert (out_a / "effects.csv").read_bytes() == (out_b / "effects.csv").read_bytes()

    def test_missing_cell_named_in_error(self, tmp_path):
        csv = _planted_csv(tmp_path / "bad.csv", drop=("A1B0C1D0E0F1", 1))
        with pytest.raises(SystemExit) as err:
            main(["effects", "--results", str(csv), "--out", str(tmp_path / "fx")])
        assert "A1B0C1D0E0F1" in str(err.value)

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

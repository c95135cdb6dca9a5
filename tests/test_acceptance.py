"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criteria 7 and 8 track the full 100-sequence test split and
dominate the runtime (about half a minute each).
"""

import filecmp

import numpy as np
import pytest

from balltrack.factorial import (
    FactorConfig,
    ResponseTable,
    compute_all_effects,
    contrast_sign,
    enumerate_configs,
    all_terms,
)
from balltrack.heatmaps import (
    bilinear_expectation,
    coarse_to_fine_expectation,
    gaussian_target,
)
from balltrack.losses import physics_consistency_loss
from balltrack.physics import physics_refine_window, to_frame_units
from balltrack.rng import RandomStream
from balltrack.selfcheck import check_frame_units, check_gradients
from balltrack.sim import SimConfig, simulate_trajectory, trajectory_windows
from balltrack.tracker import metrics_to_csv, track_split
from balltrack.video import generate_sequence, generate_split, split_stream, write_dataset

from reference_tables import REFERENCE_ENCODER_ERRORS


def _report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS: {detail}")


@pytest.fixture(scope="module")
def params(cfg):
    return to_frame_units(cfg)


@pytest.fixture(scope="module")
def test_trajectories(cfg):
    """Ground truth of the default test split (trajectories only)."""
    return [
        simulate_trajectory(cfg, split_stream(cfg, "test", i).spawn("trajectory"))
        for i in range(cfg.n_test)
    ]


def _track_split(sigma, temporal_mean):
    cfg = SimConfig(noise_sigma=sigma)
    sequences = (generate_sequence(cfg, split_stream(cfg, "test", i)) for i in range(cfg.n_test))
    return track_split(sequences, cfg, temporal_mean)[0]


def test_criterion_1_frame_unit_constants(params):
    """Frame-unit conversion reproduces the closed-form constants exactly."""
    assert abs(params.g_frame - 0.7848) <= 1e-12
    assert abs(0.5 * params.g_frame - 0.3924) <= 1e-12          # per-frame dy
    assert abs(params.g_frame - 0.7848) <= 1e-12                # per-frame dv
    assert abs(params.v_max_frame - 22.2) <= 1e-12
    name, passed, detail = check_frame_units()
    assert passed, detail
    _report(1, "g_frame=0.7848, dy=0.3924, dv=0.7848, v_max_frame=22.2 (exact to 1e-12)")


def test_criterion_2_parabola_fixed_point(params, test_trajectories):
    """Bounce-free ground-truth windows are exact fixed points.

    Windows are kept g_frame px clear of the floor bound: the forward
    integration overshoots downward by up to g_frame on exact inputs, so
    closer windows would falsely trigger the bounce branch (see ledger).
    """
    n = 0
    worst_pos = 0.0
    worst_loss = 0.0
    for traj in test_trajectories:
        for pos, _, flags in zip(*trajectory_windows(traj)):
            if flags[1] or flags[2]:
                continue
            if pos[:, 1].max() > params.center_max - params.g_frame:
                continue
            win = physics_refine_window(pos, params)
            refined = win.positions
            worst_pos = max(worst_pos, float(np.max(np.abs(refined - pos))))
            worst_loss = max(worst_loss, float(physics_consistency_loss(win, pos)))
            n += 1
    assert n >= 1000
    assert worst_pos < 1e-9
    assert worst_loss < 1e-9
    _report(2, f"{n} bounce-free windows, max |refined - gt| = {worst_pos:.2e} px, "
               f"max consistency loss = {worst_loss:.2e}")


def test_criterion_3_bounce_oracle(params, test_trajectories):
    """Bounce indicators agree with the simulator on straddled bounces.

    The velocity estimate interpolates frames (t-1, t) exactly, so a
    reflection inside the window's first step is absorbed rather than
    predicted; the indicator is informative for the forward-integrated
    step (t -> t+1).  Gate: windows whose only bounce lies in that step.
    The naive all-windows rate is reported alongside for transparency.
    """
    fwd_total = fwd_ok = 0
    any_total = any_ok = 0
    for traj in test_trajectories:
        for pos, _, flags in zip(*trajectory_windows(traj)):
            n_bounce = int(flags[1]) + int(flags[2])
            if n_bounce != 1:
                continue
            win = physics_refine_window(pos, params)
            pair_ok = (win.bounced[1] == bool(flags[1])) and (win.bounced[2] == bool(flags[2]))
            any_total += 1
            any_ok += int(pair_ok)
            if flags[2] and not flags[1]:
                fwd_total += 1
                fwd_ok += int(pair_ok)
    rate = fwd_ok / fwd_total
    assert fwd_total >= 100
    assert rate >= 0.95
    _report(3, f"forward-step bounce windows: {fwd_ok}/{fwd_total} = {rate:.1%} agreement "
               f"(all one-bounce windows incl. absorbed first-step cases: "
               f"{any_ok}/{any_total} = {any_ok/any_total:.1%})")


def test_criterion_4_differentiability():
    """Forward-mode jacobians match central differences to < 1e-4.

    Covers the physics window, all four expectation operators and both
    physics losses on random interior probes (branch margins enforced).
    """
    results = check_gradients(trials=100)
    for name, passed, detail in results:
        assert passed, f"{name}: {detail}"
    worst = max(float(detail.split()[-1]) for _, _, detail in results)
    _report(4, f"{len(results)} jacobian suites pass; worst max-rel-err {worst:.2e} "
               "(physics window, 4 operators, both physics losses; 100 probes each)")


def test_criterion_5_subpixel_operators():
    """Sub-pixel accuracy of the global centroid; window robustness."""
    rng = RandomStream.from_seed(42, "acceptance-blobs")
    errs = []
    for _ in range(1000):
        cx = rng.uniform(6, 49)
        cy = rng.uniform(6, 49)
        hm = gaussian_target((cx, cy), 56, 2.0)
        x, y = bilinear_expectation(hm)
        errs.append(np.hypot(x - cx, y - cy))
    mean_err = float(np.mean(errs))
    assert mean_err < 0.05

    wins = 0
    trials = 1000
    for _ in range(trials):
        cx = rng.uniform(6, 49)
        cy = rng.uniform(6, 49)
        while True:
            qx = rng.uniform(6, 49)
            qy = rng.uniform(6, 49)
            if np.hypot(qx - cx, qy - cy) > 12:
                break
        hm = gaussian_target((cx, cy), 56, 2.0) + 0.5 * gaussian_target((qx, qy), 56, 2.0)
        bx, by = bilinear_expectation(hm)
        fx, fy = coarse_to_fine_expectation(hm)
        err_b = np.hypot(bx - cx, by - cy)
        err_f = np.hypot(fx - cx, fy - cy)
        wins += int(err_f < err_b)
    rate = wins / trials
    assert rate >= 0.90
    _report(5, f"clean-blob bilinear mean error {mean_err:.4f} px (< 0.05); "
               f"coarse-to-fine beats global bilinear under clutter in {rate:.1%} of trials")


def test_criterion_6_factorial_estimator():
    """Exact planted-model recovery, orthogonality, and the reference-table
    sign check: C is the dominant error-reducing main effect."""
    table = ResponseTable()
    for config in enumerate_configs():
        y = 3.0 + 2.0 * contrast_sign(config, "A") - 1.0 * contrast_sign(config, "BC")
        for rep in range(4):
            table.add(config, rep, "err", y)
    effects = compute_all_effects(table, ["err"])
    assert abs(effects["A"]["err"] - 4.0) < 1e-12
    assert abs(effects["BC"]["err"] + 2.0) < 1e-12
    for term, vals in effects.items():
        if term not in ("A", "BC"):
            assert abs(vals["err"]) < 1e-12

    configs = enumerate_configs()
    vectors = [np.array([contrast_sign(c, t) for c in configs]) for t in all_terms()]
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            assert int(vectors[i] @ vectors[j]) == 0

    ref = ResponseTable()
    for idx, (b56, h56, p56) in REFERENCE_ENCODER_ERRORS.items():
        label = FactorConfig.from_index(idx).label
        ref.add(label, 0, "enc_avg", (b56 + h56 + p56) / 3.0)
    ref_effects = compute_all_effects(ref, ["enc_avg"])
    mains = {f: ref_effects[f]["enc_avg"] for f in "ABCDEF"}
    assert mains["C"] < 0
    negatives = {f: v for f, v in mains.items() if v < 0}
    assert abs(mains["C"]) == max(abs(v) for v in negatives.values())
    _report(6, "planted effects exact (A: 4, BC: -2, rest 0); 63 contrasts orthogonal; "
               f"reference-table effect(C) = {mains['C']:+.2f} is the largest "
               "error-reducing main effect (sign matches the published ranking)")


def test_criterion_7_end_to_end_clean():
    """Matched-filter tracker on the clean test split."""
    table = _track_split(sigma=0.0, temporal_mean=False)
    mean_p = table.values["P224"]
    med_p = table.median("P224")
    med_h = table.median("H224")
    assert mean_p <= 1.0
    assert med_p <= med_h
    _report(7, f"sigma=0: mean P224 = {mean_p:.3f} px (<= 1.0), "
               f"median P224 = {med_p:.3f} <= median H224 = {med_h:.3f}")


def test_criterion_8_end_to_end_noisy():
    """Noisy split with the temporal-mean flag (static noise cancelled)."""
    table = _track_split(sigma=1.0, temporal_mean=True)
    med_p = table.median("P224")
    assert med_p <= 2.0
    _report(8, f"sigma=1 + temporal mean: median P224 = {med_p:.3f} px (<= 2.0)")


def test_criterion_9_determinism_and_formats(tmp_path):
    """Bit-identical regeneration, lossless round-trips, byte-stable CSVs."""
    cfg = SimConfig(frames_per_video=12, n_train=4, n_val=2, n_test=4, seed=42)
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        for split in ("train", "val", "test"):
            write_dataset(d, split, generate_split(cfg, split), cfg)
    for name in ("meta.json", "train_frames.bin", "train_truth.bin",
                 "val_frames.bin", "val_truth.bin", "test_frames.bin", "test_truth.bin"):
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False)

    from balltrack.video import read_dataset

    seqs = generate_split(cfg, "test")
    loaded, _ = read_dataset(dirs[0], "test")
    for a, b in zip(seqs, loaded):
        assert a.frames.tobytes() == b.frames.tobytes()
        assert a.trajectory.positions_px.tobytes() == b.trajectory.positions_px.tobytes()

    # results CSV round-trips losslessly and is byte-stable across runs
    seq = generate_sequence(cfg, split_stream(cfg, "test", 0))
    table, _ = track_split([seq], cfg)
    csv_a = metrics_to_csv(table, "A0B0C0D0E0F0", 0)
    csv_b = metrics_to_csv(table, "A0B0C0D0E0F0", 0)
    assert csv_a == csv_b
    from balltrack.tracker import metrics_from_csv

    for _, _, metric, value in metrics_from_csv(csv_a):
        assert value == table.values[metric]

    # effects CSV for a planted fixture is byte-stable
    fixture = ResponseTable()
    for config in enumerate_configs():
        y = 1.0 + 0.5 * contrast_sign(config, "E")
        for rep in range(2):
            fixture.add(config, rep, "err", y)
    effects = compute_all_effects(fixture, ["err"])
    lines = [f"{t},err,{effects[t]['err']:.17g}" for t in all_terms()]
    again = [f"{t},err,{compute_all_effects(fixture, ['err'])[t]['err']:.17g}" for t in all_terms()]
    assert lines == again
    _report(9, "seed-42 regeneration bit-identical; dataset and metrics round-trip "
               "losslessly; effects CSV byte-stable")

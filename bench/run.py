"""balltrack benchmark: one command, five workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload clean_track --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the current directory and driven
through its public API in this one process, by one caller in a closed loop:
each operation starts when the previous one has finished.  Inputs are made
from ``--seed``; every output is checked against computations in
``checks.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import struct
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

ROOT = Path.cwd()
SRC = ROOT / "src"

# The machines this runs on share their cores with other tenants, and their
# speed drifts by up to 1.5x over tens of seconds.  Every timed span (the
# program's import, each set-up, each round) is therefore paired with a
# fixed calibration mix (interpreter loop, small-array numpy calls, 224x224
# FFT convolutions, roughly the blend of the workloads) measured just before
# and after it, and reported at the reference speed:
# seconds * CALIBRATION_REF_S / calibration seconds.  CALIBRATION_REF_S is
# the mix's time on the reference machine (see README.md) when it was quiet.
CALIBRATION_REF_S = 0.0136
_CAL_FRAME = np.random.default_rng(0).random((224, 224))
_CAL_KERNEL = np.ones((7, 7))
_CAL_VECTOR = np.arange(64.0)


def calibrate() -> float:
    """Seconds taken by the fixed calibration mix."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(20000):
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
    for _ in range(300):
        float(np.mean(_CAL_VECTOR[::2]) - np.mean(_CAL_VECTOR[1::2]))
    for _ in range(5):
        fftconvolve(_CAL_FRAME, _CAL_KERNEL, mode="same")
    return time.perf_counter() - start


class SpeedGauge:
    """Calibration samples taken between timed spans."""

    def __init__(self):
        calibrate()  # first call pays for FFT plan caches
        self.last = calibrate()
        self.samples = [self.last]

    def factor(self) -> float:
        """Measure again; the factor that converts the seconds of the span since
        the previous sample to seconds at reference speed."""
        now = calibrate()
        factor = 2.0 * CALIBRATION_REF_S / (self.last + now)
        self.last = now
        self.samples.append(now)
        return factor


def _import_program():
    """Import balltrack from ./src; return it and its import time at reference speed.

    numpy and scipy are already loaded: their import (about 1 s) varied by
    20 % between processes without following the machine's speed, which
    would hide any change in the program's own import.
    """
    package_dir = SRC / "balltrack"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"bench: {package_dir} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    gauge = SpeedGauge()
    start = time.perf_counter()
    import balltrack
    import balltrack.cli  # noqa: F401  (loads every layer)

    seconds = time.perf_counter() - start
    if Path(balltrack.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"bench: balltrack was imported from {balltrack.__file__}, not {package_dir}")
    return balltrack, seconds * gauge.factor()


balltrack, IMPORT_S = _import_program()

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
# program functions are called through their modules, so that the tracer's
# wrappers (installed later, in traced runs) are the ones called
from balltrack import cli, factorial, selfcheck, tracker, video  # noqa: E402
from balltrack.sim import SimConfig  # noqa: E402
from balltrack.video import DatasetError, TruncatedFileError  # noqa: E402


@dataclass(frozen=True)
class Size:
    gen_sequences: int = 8       # sequences per generated split
    track_sequences: int = 6     # sequences in the tracked split
    replicates: int = 3          # replicates per config in the effects grid
    selfcheck_trials: int = 100  # the CLI default
    setup_repeats: int = 3


FULL = Size()
TINY = Size(gen_sequences=2, track_sequences=2, replicates=1, selfcheck_trials=4,
            setup_repeats=1)

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "tracker.ncc_heatmap.ms": ("ms", "lower"),
    "tracker.ncc_heatmap.calls": ("count", "lower"),
    "tracker.fft_calls": ("count", "lower"),
    "tracker.downscale_heatmap.ms": ("ms", "lower"),
    "tracker.track_sequence.ms": ("ms", "lower"),
    "tracker.track_sequence.self_ms": ("ms", "lower"),
    "tracker.evaluate.ms": ("ms", "lower"),
    "tracker.metrics_from_csv.ms": ("ms", "lower"),
    "tracker.p224_err_px": ("px", "lower"),
    "tracker.p56_err_px": ("px", "lower"),
    "heatmaps.ms": ("ms", "lower"),
    "heatmaps.calls": ("count", "lower"),
    "physics.ms": ("ms", "lower"),
    "physics.calls": ("count", "lower"),
    "video.read_dataset.ms": ("ms", "lower"),
    "video.read_dataset.mb_per_s": ("MB/s", "higher"),
    "video.write_dataset.ms": ("ms", "lower"),
    "video.write_dataset.mb_per_s": ("MB/s", "higher"),
    "video.generate_split.ms": ("ms", "lower"),
    "video.render_frame.ms": ("ms", "lower"),
    "video.make_noise_image.ms": ("ms", "lower"),
    "sim.simulate_trajectory.ms": ("ms", "lower"),
    "rng.ms": ("ms", "lower"),
    "rng.calls": ("count", "lower"),
    "factorial.ResponseTable.from_rows.ms": ("ms", "lower"),
    "factorial.compute_all_effects.ms": ("ms", "lower"),
    "factorial.effect_estimate.calls": ("count", "lower"),
    "factorial.ResponseTable.responses.calls": ("count", "lower"),
    "factorial.rank_effects.ms": ("ms", "lower"),
    "cli.track.self_ms": ("ms", "lower"),
    "cli.effects.self_ms": ("ms", "lower"),
    "selfcheck.check_gradients.ms": ("ms", "lower"),
    "selfcheck.check_parabola_fixed_point.ms": ("ms", "lower"),
    "selfcheck.check_unit_scaling.ms": ("ms", "lower"),
    "autodiff.jacobian_forward.ms": ("ms", "lower"),
    "autodiff.jacobian_forward.calls": ("count", "lower"),
    "autodiff.jacobian_fd.ms": ("ms", "lower"),
    "autodiff.jacobian_fd.calls": ("count", "lower"),
    "losses.ms": ("ms", "lower"),
    "losses.calls": ("count", "lower"),
    "traced_ops_per_s": ("1/s", "higher"),
    "calibration_ms": ("ms", "lower"),
}
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# untimed probes of two known persistence faults; their inputs are fixed so
# that they fail (or pass) identically on every seed and every round
PROBE_CFG = SimConfig(image_size=16, radius_px=2.0, v_max=2.0, frames_per_video=3,
                      n_train=1, n_val=1, n_test=1, seed=7)


def probe_rejected_write_keeps_frames(work: Path) -> bool:
    """A write with another config must be rejected and leave the frames intact."""
    target = work / "probe_rejected_write"
    shutil.rmtree(target, ignore_errors=True)
    other = replace(PROBE_CFG, noise_sigma=1.0)
    video.write_dataset(target, "test", video.generate_split(PROBE_CFG, "test"), PROBE_CFG)
    before = video.read_dataset(target, "test")[0][0].frames.copy()
    try:
        video.write_dataset(target, "test", video.generate_split(other, "test"), other)
    except DatasetError:
        rejected = True
    else:
        rejected = False
    try:
        after = video.read_dataset(target, "test")[0][0].frames
    except DatasetError:
        return False
    return rejected and np.array_equal(before, after)


def probe_oversized_header(work: Path) -> bool:
    """A record declaring far more payload than the file holds is 'truncated'."""
    target = work / "probe_oversized_header"
    shutil.rmtree(target, ignore_errors=True)
    video.write_dataset(target, "test", video.generate_split(PROBE_CFG, "test"), PROBE_CFG)
    header = b"PITD" + struct.pack("<II", 1, 1) + struct.pack("<Q", 1 << 62)
    (target / "test_frames.bin").write_bytes(header + bytes(16))
    try:
        video.read_dataset(target, "test")
    except TruncatedFileError:
        return True
    except (OverflowError, MemoryError, ValueError, DatasetError):
        return False
    return False


class Round:
    """One round: timed operations and their seconds, untimed fault probes."""

    def __init__(self):
        self.ops = 0
        self.probes = 0
        self.failed = 0
        self.seconds = 0.0
        self.errors: list[str] = []


class Workload:
    """Base: ``setup`` may run several times; ``run_round`` does one round."""

    min_rounds = 1

    def __init__(self, seed: int, size: Size, work: Path, tracer: Tracer | None):
        self.seed = seed
        self.size = size
        self.work = work
        self.tracer = tracer
        self.extra: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def timed(self, rnd: Round):
        """Time a section; the tracer records only inside timed sections."""
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            rnd.seconds += time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False

    def note(self, name: str, value: float) -> None:
        self.extra.setdefault(name, []).append(value)

    def setup(self) -> None:
        pass

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks on the whole run, after the last round."""
        return []


class GenSplit(Workload):
    """Generate and write one sigma=1 test split per round, as ``balltrack gen`` does."""

    def config(self, index: int) -> SimConfig:
        return SimConfig(noise_sigma=1.0, n_test=self.size.gen_sequences,
                         seed=self.seed * 1000 + index)

    def setup(self):
        # warm-up: round 0's split through the write path
        target = self.work / "warmup"
        shutil.rmtree(target, ignore_errors=True)
        cfg = self.config(0)
        video.write_dataset(target, "test", video.generate_split(cfg, "test"), cfg)
        shutil.rmtree(target)

    def run_round(self, index):
        rnd = Round()
        cfg = self.config(index)
        target = self.work / "dataset"
        shutil.rmtree(target, ignore_errors=True)
        with self.timed(rnd):
            sequences = video.generate_split(cfg, "test")
            video.write_dataset(target, "test", sequences, cfg)
        rnd.ops = len(sequences)
        self.note("write_bytes", sum(f.stat().st_size for f in target.glob("test_*.bin")))

        loaded, _ = video.read_dataset(target, "test")
        (frames,) = checks.read_records(target / "test_frames.bin", ("<f4",))
        if not len(loaded) == len(frames) == len(sequences):
            rnd.errors.append(f"wrote {len(sequences)} sequences, read back {len(loaded)}")
        for seq, back, raw in zip(sequences, loaded, frames):
            traj, got = seq.trajectory, back.trajectory
            same = (seq.frames.tobytes() == back.frames.tobytes() == raw.tobytes()
                    and traj.positions_px.tobytes() == got.positions_px.tobytes()
                    and traj.velocities_fu.tobytes() == got.velocities_fu.tobytes()
                    and np.array_equal(traj.bounce_flags, got.bounce_flags))
            if not same:
                rnd.errors.append("read_dataset differs from the generated split")
            rnd.errors += checks.check_frames(seq.frames, traj.positions_px, cfg.image_size,
                                              cfg.radius_px, cfg.noise_sigma)
            rnd.errors += checks.check_truth(traj.positions_px, traj.velocities_fu,
                                             traj.bounce_flags, cfg.image_size, cfg.radius_px)
        rnd.probes = 1
        rnd.failed = int(not probe_rejected_write_keeps_frames(self.work))
        return rnd


class TrackWorkload(Workload):
    """Read, track, evaluate and write results, as ``balltrack track`` does.

    The split's sequences are written as one-sequence datasets and round i
    tracks dataset i mod n: a round then takes a fraction of a second, so a
    run holds dozens of rounds and its median rate shrugs off the slow
    stretches of a shared machine.  The paper's acceptance bounds apply to
    the whole split and are checked in ``finish``.
    """

    sigma = 0.0
    temporal_mean = False

    def setup(self):
        self.cfg = SimConfig(noise_sigma=self.sigma, n_test=self.size.track_sequences,
                             seed=self.seed)
        self.sequences = video.generate_split(self.cfg, "test")
        single = replace(self.cfg, n_test=1)
        self.data = []
        for k, seq in enumerate(self.sequences):
            target = self.work / f"dataset{k}"
            shutil.rmtree(target, ignore_errors=True)
            video.write_dataset(target, "test", [seq], single)
            self.data.append(target)
        tracker.track_sequence(self.sequences[0], self.cfg, temporal_mean=self.temporal_mean)
        self.read_bytes = sum(f.stat().st_size for f in self.data[0].iterdir())
        self.per_seq: dict[int, dict[str, float]] = {}

    @property
    def min_rounds(self) -> int:
        return len(self.sequences)

    def run_round(self, index):
        rnd = Round()
        k = index % len(self.sequences)
        out = self.work / "results"
        argv = ["track", "--data", str(self.data[k]), "--out", str(out)]
        if self.temporal_mean:
            argv.append("--temporal-mean")
        with contextlib.redirect_stdout(io.StringIO()), self.timed(rnd):
            code = cli.main(argv)
        rnd.ops = 1
        self.note("read_bytes", self.read_bytes)
        if code != 0:
            rnd.errors.append(f"balltrack track exited with {code}")
            return rnd

        cfg, seq = self.cfg, self.sequences[k]
        traj = seq.trajectory
        truth = [a[None] for a in (traj.positions_px, traj.velocities_fu, traj.bounce_flags)]
        errors, per_seq = checks.check_tracking(out, *truth, cfg.image_size, cfg.radius_px)
        rnd.errors += errors
        if per_seq:
            values = {m: float(v[0]) for m, v in per_seq.items()}
            if self.per_seq.setdefault(k, values) != values:
                rnd.errors.append(f"sequence {k} tracked twice gave different metrics")

        template = checks.disk_template(cfg.radius_px)
        if np.max(np.abs(template - tracker.disk_template(cfg.radius_px))) > 1e-15:
            rnd.errors.append("disk_template differs from the reference template")
        t = int(np.random.default_rng([self.seed, index]).integers(cfg.frames_per_video))
        probes = [seq.frames[t]]
        if self.temporal_mean:
            probes.append(checks.temporal_mean_frame(seq.frames, t))
        for frame in probes:
            gap = float(np.max(np.abs(tracker.ncc_heatmap(frame, template)
                                      - checks.ncc_reference(frame, template))))
            if gap > 1e-9:
                rnd.errors.append(f"ncc_heatmap differs from the spatial reference by {gap:.3e}")

        rnd.probes = 1
        rnd.failed = int(not probe_oversized_header(self.work))
        return rnd

    def finish(self) -> list[str]:
        if len(self.per_seq) < len(self.sequences):
            return [f"only {len(self.per_seq)} of {len(self.sequences)} sequences tracked"]
        split = {m: np.array([self.per_seq[k][m] for k in sorted(self.per_seq)])
                 for m in checks.METRICS}
        self.note("p224", float(split["P224"].mean()))
        self.note("p56", float(split["P56"].mean()))
        return checks.check_acceptance(split, noisy=self.sigma > 0)


class CleanTrack(TrackWorkload):
    sigma = 0.0
    temporal_mean = False


class NoisyTrack(TrackWorkload):
    sigma = 1.0
    temporal_mean = True


class EffectsGrid(Workload):
    """``balltrack effects`` on a full 64-config grid synthesised from the seed."""

    def setup(self):
        rng = np.random.default_rng(self.seed)
        text, self.planted = checks.synth_results(rng, self.size.replicates)
        self.csv = self.work / "results.csv"
        self.csv.write_text(text)
        # warm-up: the program's input path for that CSV
        table = factorial.ResponseTable.from_rows(tracker.metrics_from_csv(text))
        table.add_aggregates()

    def run_round(self, index):
        rnd = Round()
        out = self.work / "effects"
        argv = ["effects", "--results", str(self.csv), "--out", str(out), "--top", "10"]
        with contextlib.redirect_stdout(io.StringIO()), self.timed(rnd):
            code = cli.main(argv)
        rnd.ops = 1
        if code != 0:
            rnd.errors.append(f"balltrack effects exited with {code}")
        else:
            rnd.errors += checks.check_effects(out, self.planted, top=10)
        return rnd


class Selfcheck(Workload):
    """``balltrack selfcheck`` at its default trial count (inputs are fixed)."""

    def setup(self):
        # warm-up: every check once, at a few trials
        selfcheck.run_all(trials=5)

    def run_round(self, index):
        rnd = Round()
        argv = ["selfcheck"]
        if self.size.selfcheck_trials != FULL.selfcheck_trials:
            argv += ["--trials", str(self.size.selfcheck_trials)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), self.timed(rnd):
            code = cli.main(argv)
        rnd.ops = 1
        lines = buf.getvalue().splitlines()
        results = [ln for ln in lines if ln.startswith("[")]
        if code != 0 or not results or any(not ln.startswith("[PASS]") for ln in results):
            rnd.errors.append("selfcheck reported a failure: "
                              + "; ".join(ln for ln in results if not ln.startswith("[PASS]")))
        elif lines[-1] != f"{len(results)}/{len(results)} checks passed":
            rnd.errors.append(f"selfcheck summary line reads {lines[-1]!r}")
        return rnd


WORKLOADS = {
    "gen_split": GenSplit,
    "clean_track": CleanTrack,
    "noisy_track": NoisyTrack,
    "effects_grid": EffectsGrid,
    "selfcheck": Selfcheck,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL,
                 work: Path | None = None) -> dict:
    """Set up, run rounds for ``seconds`` and return the result object."""
    work = work or ROOT / ".bench_work" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(balltrack)
    # one core for the whole run, so that the calibration samples measure the
    # core the work runs on (the loop is single-threaded)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        workload = WORKLOADS[name](seed, size, work, tracer)
        gauge = SpeedGauge()
        setups = []
        for _ in range(size.setup_repeats):
            start = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - start) * gauge.factor())

        rates, errors = [], []
        attempted = failed = ops = 0
        start = time.perf_counter()
        index = 0
        while True:
            rnd = workload.run_round(index)
            index += 1
            attempted += rnd.ops + rnd.probes
            failed += rnd.failed
            ops += rnd.ops
            rates.append(rnd.ops / (rnd.seconds * gauge.factor()))
            errors += rnd.errors
            if time.perf_counter() - start >= seconds and index >= workload.min_rounds:
                break
        errors += workload.finish()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = layer_metrics(tracer.totals(), workload, ops)
        metrics["traced_ops_per_s"] = statistics.median(rates)
        metrics["calibration_ms"] = statistics.median(gauge.samples) * 1e3
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": IMPORT_S + statistics.median(setups),
            "ops_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    for err in dict.fromkeys(errors):
        print(f"bench: {name}: {err}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k][0]} for k in units},
    }


def layer_metrics(totals: dict[str, float], workload: Workload, ops: int) -> dict[str, float]:
    """Per-operation values of every per-layer metric (0 where a layer is idle)."""
    out = {name: totals.get(name, 0.0) / ops for name in PER_LAYER}
    for layer, bytes_key in (("video.read_dataset", "read_bytes"),
                             ("video.write_dataset", "write_bytes")):
        seconds = totals.get(f"{layer}.ms", 0.0) / 1e3
        moved = sum(workload.extra.get(bytes_key, []))
        out[f"{layer}.mb_per_s"] = moved / 1e6 / seconds if seconds > 0 else 0.0
    for key, metric in (("p224", "tracker.p224_err_px"), ("p56", "tracker.p56_err_px")):
        values = workload.extra.get(key)
        out[metric] = statistics.mean(values) if values else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

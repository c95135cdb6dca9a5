"""Command-line entry point.

Subcommands:

* ``gen``        generate datasets (train/val/test) at the requested noise levels
* ``track``      run the matched-filter tracker over a split and write metrics
* ``selfcheck``  run the numerical self-check suite (constants, gradients)
* ``effects``    estimate factorial effects from a results CSV

Every command writes a ``<command>_manifest.json`` next to its outputs with
the fully resolved configuration, so a run can be reproduced bit-exactly.
Output directories are guarded by a lock file; two commands cannot write
the same directory concurrently.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import __version__
from .factorial import (
    FactorConfig,
    MissingCellsError,
    ResponseTable,
    all_terms,
    compute_all_effects,
    rank_effects,
    ENCODER_METRICS,
    DECODER_METRICS,
)
from .selfcheck import run_all
from .sim import SimConfig, SimulationError
from .tracker import METRICS, metrics_from_csv, metrics_to_csv, per_sequence_to_csv, track_split
from .video import (
    DatasetError,
    SPLITS,
    _write_record,
    generate_split,
    read_dataset,
    write_dataset,
)

ENV_OUT_ROOT = "BALLTRACK_OUT"


class _OutputLock:
    """Single-writer lock per output directory; the file holds the owner's PID."""

    def __init__(self, directory: Path):
        self.path = Path(directory) / ".balltrack.lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                owner = self.path.read_text().strip() or "unknown"
            except OSError:
                owner = "unknown"
            raise SystemExit(f"output directory is locked by {self.path} (pid {owner}); "
                             "remove the file if no other run is active")
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)


# gen flag -> SimConfig field; types and defaults come from the field
_SIM_FLAGS = {
    "--image-size": ("image_size", None),
    "--scale": ("scale", "meters per pixel"),
    "--dt": ("dt", "seconds per frame"),
    "--gravity": ("gravity", None),
    "--restitution": ("restitution", None),
    "--radius": ("radius_px", "ball radius [px]"),
    "--vmax": ("v_max", "max |v0| component [m/s]"),
    "--frames": ("frames_per_video", None),
    "--seed": ("seed", None),
    "--train": ("n_train", "training sequences"),
    "--val": ("n_val", "validation sequences"),
    "--test": ("n_test", "test sequences"),
}


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    defaults = {f.name: f.default for f in fields(SimConfig)}
    for flag, (name, help_text) in _SIM_FLAGS.items():
        parser.add_argument(flag, dest=name, type=type(defaults[name]), default=defaults[name],
                            help=help_text)


def _config_from_args(args, sigma: float) -> SimConfig:
    return SimConfig(noise_sigma=sigma, **{name: getattr(args, name) for name, _ in _SIM_FLAGS.values()})


def _resolve_out(args, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    root = os.environ.get(ENV_OUT_ROOT)
    if root is None:
        raise SystemExit(f"--out not given and ${ENV_OUT_ROOT} is unset")
    return Path(root) / default_name


def _write_manifest(directory: Path, command: str, config: dict, inputs, outputs, started: float) -> None:
    resolved = {k: v for k, v in config.items()
                if k != "func" and isinstance(v, (str, int, float, bool, list, type(None)))}
    manifest = {
        "command": command,
        "config": resolved,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "artifact_version": __version__,
        "duration_s": round(time.time() - started, 3),
    }
    (directory / f"{command}_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _sigma_dir(out: Path, sigma: float) -> Path:
    tag = f"{sigma:g}".replace(".", "p")
    return out / f"sigma_{tag}"


def cmd_gen(args) -> int:
    out = _resolve_out(args, "dataset")
    sigmas = args.sigma if args.sigma else [0.0, 1.0]
    started = time.time()
    targets = {}  # every input is checked before the lock creates the directory
    for sigma in sigmas:
        try:
            cfg = _config_from_args(args, sigma)
        except SimulationError as err:
            raise SystemExit(f"invalid configuration: {err}")
        target = _sigma_dir(out, sigma)
        if target in targets:
            raise SystemExit(f"--sigma {targets[target].noise_sigma} and --sigma {sigma} "
                             f"both map to {target}")
        targets[target] = cfg
    outputs = []
    with _OutputLock(out):
        for target, cfg in targets.items():
            for split in SPLITS:
                sequences = generate_split(cfg, split)
                write_dataset(target, split, sequences, cfg)
                outputs.append(target / f"{split}_frames.bin")
            print(f"wrote {target} (sigma={cfg.noise_sigma:g}, "
                  f"{cfg.n_train}/{cfg.n_val}/{cfg.n_test} sequences)")
        _write_manifest(out, "gen", {**vars(args), "sigma": sigmas}, [], outputs, started)
    return 0


def cmd_track(args) -> int:
    data = Path(args.data)
    out = _resolve_out(args, "results")
    started = time.time()
    sequences, cfg = read_dataset(data, args.split)
    if cfg.image_size % 4 != 0:
        raise SystemExit(f"error: {data}: image size {cfg.image_size} is not divisible by 4, "
                         "which the 2x and 4x pooling of the heatmap pyramid needs")
    with _OutputLock(out):
        table, predictions = track_split(sequences, cfg, temporal_mean=args.temporal_mean)

        csv_path = out / "metrics.csv"
        csv_path.write_text(metrics_to_csv(table, args.config_label, args.replicate))
        per_seq_path = out / "per_sequence_metrics.csv"
        per_seq_path.write_text(per_sequence_to_csv(table))
        pred_path = out / "predictions.bin"
        _write_predictions(pred_path, predictions)
        for metric in METRICS:
            print(f"{metric:>10}: {table.values[metric]:.4f}")
        _write_manifest(out, "track", vars(args), [data], [csv_path, per_seq_path, pred_path], started)
    return 0


def _write_predictions(path: Path, predictions) -> None:
    """Binary dump of :func:`track_split`'s window arrays (record scheme of the
    dataset files; per scale: B/H/P positions, velocities f64, bounce flags u8)."""
    with open(path, "wb") as fh:
        for scale in sorted(predictions):
            for key, dtype in (("B", "<f8"), ("H", "<f8"), ("P", "<f8"),
                               ("V", "<f8"), ("bounce", "<u1")):
                _write_record(fh, predictions[scale][key], dtype)


def cmd_selfcheck(args) -> int:
    checks = run_all(trials=args.trials)
    failed = 0
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += 0 if passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def cmd_effects(args) -> int:
    out = _resolve_out(args, "effects")
    started = time.time()
    try:
        table = ResponseTable.from_rows(metrics_from_csv(Path(args.results).read_text()))
        table.add_aggregates()
    except OSError as err:
        raise SystemExit(f"error: {args.results}: {err.strerror}")
    except ValueError as err:  # malformed rows, config labels or repeated cells
        raise SystemExit(f"error: {args.results}: {err}")
    metrics = table.metrics()
    try:
        effects = compute_all_effects(table, metrics)
    except MissingCellsError as err:
        raise SystemExit(f"incomplete design grid: {err}")

    with _OutputLock(out):
        csv_path = out / "effects.csv"
        lines = ["term,metric,effect"]
        for term in all_terms():
            for metric in metrics:
                lines.append(f"{term},{metric},{effects[term][metric]:.17g}")
        csv_path.write_text("\n".join(lines) + "\n")

        report_path = out / "effects_report.txt"
        report = []
        for title, group in (("encoder (56-scale metrics)", ENCODER_METRICS),
                             ("decoder (112/224-scale metrics)", DECODER_METRICS)):
            if not all(m in metrics for m in group):
                continue
            report.append(f"Top effects, {title}; negative = reduces error")
            header = "term".ljust(8) + "".join(m.rjust(10) for m in group) + "avg".rjust(10)
            report.append(header)
            ranked = rank_effects(effects, group)[: args.top]
            for term, avg in ranked:
                row = term.ljust(8)
                row += "".join(f"{effects[term][m]:+.2f}".rjust(10) for m in group)
                row += f"{avg:+.2f}".rjust(10)
                report.append(row)
            report.append("")
        report_path.write_text("\n".join(report))
        print(report_path.read_text())
        _write_manifest(out, "effects", vars(args), [args.results], [csv_path, report_path], started)
    return 0


def _int_at_least(lo: int):
    def integer(text: str) -> int:  # argparse names the type in its usage errors
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return int(text)

    return integer


def _config_label(text: str) -> str:
    try:
        return FactorConfig.from_label(text).label
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="balltrack",
                                     description="bouncing-ball tracking toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic datasets")
    gen.add_argument("--out", default=None, help=f"output dir (default ${ENV_OUT_ROOT}/dataset)")
    gen.add_argument("--sigma", type=float, action="append", default=None,
                     help="noise level; repeatable (default: 0 and 1)")
    _add_sim_flags(gen)
    gen.set_defaults(func=cmd_gen)

    track = sub.add_parser("track", help="track a dataset split and write metrics")
    track.add_argument("--data", required=True, help="dataset directory (one sigma level)")
    track.add_argument("--split", default="test", choices=SPLITS)
    track.add_argument("--out", default=None)
    track.add_argument("--temporal-mean", action="store_true",
                       help="subtract the 3-frame mean before correlation "
                            "(cancels the static noise background)")
    track.add_argument("--config-label", type=_config_label, default="A0B0C0D0E0F0",
                       help="config column stamped into the results CSV")
    track.add_argument("--replicate", type=int, default=0)
    track.set_defaults(func=cmd_track)

    check = sub.add_parser("selfcheck", help="run numerical self-checks")
    check.add_argument("--trials", type=_int_at_least(0), default=100, help="derivative probe count")
    check.set_defaults(func=cmd_selfcheck)

    effects = sub.add_parser("effects", help="factorial effects from a results CSV")
    effects.add_argument("--results", required=True, help="CSV: config,replicate,metric,value")
    effects.add_argument("--out", default=None)
    effects.add_argument("--top", type=_int_at_least(1), default=10, help="rows in the ranked report")
    effects.set_defaults(func=cmd_effects)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, SimulationError) as err:
        raise SystemExit(f"error: {err}")


if __name__ == "__main__":
    sys.exit(main())

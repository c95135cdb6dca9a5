"""Command-line entry point.

Subcommands:

* ``gen``        generate datasets (train/val/test) at the requested noise levels
* ``track``      run the matched-filter tracker over a split and write metrics
* ``selfcheck``  run the numerical self-check suite (constants, gradients)
* ``effects``    estimate factorial effects from a results CSV

Every command writes a ``<command>_manifest.json`` next to its outputs with
the fully resolved configuration and the platform (the Python, numpy and
scipy versions and numpy's complex128 multiply kernel), so a run can be
reproduced bit-exactly on a machine whose multiply kernel is the same.
Every output directory is made, locked and written by ``video.staged``, so
two commands cannot write one directory at once and a failed command leaves
nothing it made.  ``gen`` lands every ``sigma_*`` directory at once, after
every split of every noise level is written, so a failed ``gen`` changes no
file.  Every failure, a rejected input, a held lock, an ``OSError`` or a
``MemoryError``, ends a command with ``error: ...``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    compute_all_effects,
    rank_effects,
    ENCODER_METRICS,
    DECODER_METRICS,
)
from .selfcheck import run_all
from .sim import SimConfig, SimulationError
from .tracker import (SCALES, metrics_columns_from_csv, metrics_to_csv, per_sequence_to_csv, track_split,
                      write_predictions)
from .video import DatasetError, SPLITS, existing_manifest, generate_split, read_dataset, staged, staged_dataset

ENV_OUT_ROOT = "BALLTRACK_OUT"


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
        raise SystemExit(f"error: --out not given and ${ENV_OUT_ROOT} is unset")
    return Path(root) / default_name


@functools.cache
def _platform() -> dict:
    """The Python, numpy and scipy versions, and the complex128 multiply
    kernel numpy dispatches to: a fused multiply-add kernel and the plain one
    give the tracker's spectral products different last bits."""
    import platform

    import numpy
    import scipy

    try:
        from numpy.lib.introspect import opt_func_info
        (dispatch,) = opt_func_info(func_name="^multiply$", signature="complex128")["multiply"].values()
        kernel = dispatch["current"]
    except (ImportError, KeyError, ValueError):  # numpy < 2.0, or a build with no dispatched kernel
        kernel = None
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "complex128_multiply": kernel}


def _write_manifest(path: Path, command: str, config: dict, inputs, outputs, started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "artifact_version": __version__,
        "platform": _platform(),
        "duration_s": round(time.time() - started, 3),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _sigma_dir(out: Path, sigma: float) -> Path:
    tag = f"{sigma:g}".replace(".", "p")
    return out / f"sigma_{tag}"


def cmd_gen(args) -> int:
    out = _resolve_out(args, "dataset")
    sigmas = args.sigma if args.sigma else [0.0, 1.0]
    started = time.time()
    targets = {}  # every input is checked before staged creates the directory
    for sigma in sigmas:
        try:
            cfg = _config_from_args(args, sigma)
        except SimulationError as err:
            raise SystemExit(f"error: invalid configuration: {err}")
        target = _sigma_dir(out, cfg.noise_sigma)
        if target in targets:
            raise SystemExit(f"error: --sigma {targets[target][0]} and --sigma {sigma} both map to {target}")
        targets[target] = sigma, cfg  # the sigma as given
    for target, (_, cfg) in targets.items():  # a dataset there must share the config: checked before any write
        existing_manifest(target, cfg)
    with contextlib.ExitStack() as stack:  # nothing lands before it closes, gen_manifest.json last
        (manifest,) = stack.enter_context(staged(out, ["gen_manifest.json"]))
        outputs = []
        for target, (_, cfg) in targets.items():  # each directory lands as the stack closes
            splits = {split: generate_split(cfg, split) for split in SPLITS}
            outputs += stack.enter_context(staged_dataset(target, splits, cfg))
        _write_manifest(manifest, "gen", {**vars(args), "sigma": sigmas}, [], outputs, started)
    for target, (_, cfg) in targets.items():
        print(f"wrote {target} (sigma={cfg.noise_sigma:g}, {cfg.n_train}/{cfg.n_val}/{cfg.n_test} sequences)")
    return 0


def cmd_track(args) -> int:
    data = Path(args.data)
    out = _resolve_out(args, "results")
    started = time.time()
    sequences, cfg = read_dataset(data, args.split)
    try:  # tracking writes nothing, so a split the tracker rejects leaves no output behind
        per_sequence, predictions = track_split(sequences, cfg, temporal_mean=args.temporal_mean)
    except ValueError as err:
        raise SystemExit(f"error: {data}: {err}")
    names = ["metrics.csv", "per_sequence_metrics.csv", "predictions.bin", "track_manifest.json"]
    with staged(out, names) as (csv_path, per_seq_path, pred_path, manifest):
        csv_path.write_text(metrics_to_csv(per_sequence, args.config_label, args.replicate))
        per_seq_path.write_text(per_sequence_to_csv(per_sequence))
        write_predictions(pred_path, predictions)
        for metric, v in per_sequence.items():
            print(f"{metric:>10}: {float(v.mean()):.4f}")
        _write_manifest(manifest, "track", vars(args), [data], [out / n for n in names[:-1]], started)
    return 0


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
        table = ResponseTable.from_columns(*metrics_columns_from_csv(Path(args.results).read_text()))
        table.add_aggregates()
    except ValueError as err:  # malformed rows, config labels or repeated cells
        raise SystemExit(f"error: {args.results}: {err}")
    metrics = table.metrics()
    try:
        effects = compute_all_effects(table, metrics)
    except MissingCellsError as err:
        raise SystemExit(f"error: incomplete design grid: {err}")

    names = ["effects.csv", "effects_report.txt", "effects_manifest.json"]
    with staged(out, names) as (csv_path, report_path, manifest):
        csv_path.write_text("term,metric,effect\n" + "".join([
            f"{term},{metric},{value:.17g}\n"
            for term, per_metric in effects.items() for metric, value in per_metric.items()]))

        report = []
        for title, group in ((f"encoder ({SCALES[0]}-scale metrics)", ENCODER_METRICS),
                             (f"decoder ({'/'.join(map(str, SCALES[1:]))}-scale metrics)", DECODER_METRICS)):
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
        text = "\n".join(report)
        report_path.write_text(text)
        print(text)
        _write_manifest(manifest, "effects", vars(args), [args.results], [out / n for n in names[:-1]], started)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parse with it, do not change it."""
    parser = argparse.ArgumentParser(prog="balltrack",
                                     description="bouncing-ball tracking toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic datasets")
    gen.add_argument("--out", default=None, help=f"output dir (default ${ENV_OUT_ROOT}/dataset)")
    gen.add_argument("--sigma", type=float, action="append", default=None,
                     help="noise level; repeatable (default: 0 and 1)")
    _add_sim_flags(gen)

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

    check = sub.add_parser("selfcheck", help="run numerical self-checks")
    check.add_argument("--trials", type=_int_at_least(0), default=100, help="derivative probe count")

    effects = sub.add_parser("effects", help="factorial effects from a results CSV")
    effects.add_argument("--results", required=True, help="CSV: config,replicate,metric,value")
    effects.add_argument("--out", default=None)
    effects.add_argument("--top", type=_int_at_least(1), default=10, help="rows in the ranked report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # looked up per call, so a wrapper put in its place is called
    try:
        return command(args)
    except (DatasetError, SimulationError) as err:
        raise SystemExit(f"error: {err}")
    except OSError as err:  # a missing input, an --out that names a file, a full disk
        where = f"{err.filename}: " if err.filename else ""
        raise SystemExit(f"error: {where}{err.strerror or err}")
    except MemoryError as err:  # an array too large to allocate, such as the frames of a huge --image-size
        raise SystemExit(f"error: {str(err) or 'out of memory'}")


if __name__ == "__main__":
    sys.exit(main())

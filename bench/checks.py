"""Reference computations for the benchmark's correctness checks.

Everything here is written from the documented definitions (disk test,
frame-unit ballistics, zero-normalised correlation, the record layout, the
middle-frame metric protocol, contrast-coded effects), not from the
program's code, so a check passes only when the program agrees with an
independent computation.  Each ``check_*`` returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import struct
from itertools import combinations
from pathlib import Path

import numpy as np

G_FRAME = 0.7848           # (9.81 m/s^2 / 0.02 m/px) * (0.04 s)^2
SCALES = (56, 112, 224)
METRICS = tuple([f"{m}{s}" for m in "BHP" for s in SCALES]
                + [f"V{s}" for s in SCALES] + [f"bounce{s}" for s in SCALES])
ENCODER = ("B56", "H56", "P56")
DECODER = ("B112", "B224", "H112", "H224", "P112", "P224")
FACTORS = "ABCDEF"


# ---- data ---------------------------------------------------------------


def disk_frames(centres: np.ndarray, size: int, radius: float) -> np.ndarray:
    """(T, H, W) float32 stack: 1 where (j-x)^2 + (i-y)^2 <= r^2."""
    ii = np.arange(size, dtype=np.float64)[None, :, None]
    jj = np.arange(size, dtype=np.float64)[None, None, :]
    x = centres[:, 0][:, None, None]
    y = centres[:, 1][:, None, None]
    return ((jj - x) ** 2 + (ii - y) ** 2 <= radius * radius).astype(np.float32)


def check_frames(frames: np.ndarray, positions: np.ndarray, size: int, radius: float,
                 sigma: float) -> list[str]:
    """Clean frames are the disk; noisy frames are the disk plus one static image."""
    disks = disk_frames(positions, size, radius)
    if sigma == 0.0:
        return [] if np.array_equal(frames, disks) else ["clean frame differs from the disk test"]
    background = frames.astype(np.float64) - disks
    # frame = fl32(disk + noise): inside the disk the subtraction is exact to
    # one float32 rounding of values below 8, i.e. within 2**-21
    drift = float(np.max(np.abs(background - background[0])))
    std = float(background[0].std())
    errors = []
    if drift > 2.0 ** -20:
        errors.append(f"noise background is not static (max drift {drift:.3e})")
    if abs(std - sigma) > 0.05 * sigma:
        errors.append(f"noise std {std:.4f} != sigma {sigma}")
    return errors


def check_truth(positions: np.ndarray, velocities: np.ndarray, bounces: np.ndarray,
                size: int, radius: float) -> list[str]:
    """Bounce-free steps follow dx = vx, dy = vy + g/2, dvy = g (frame units)."""
    errors = []
    free = ~bounces[1:]
    step = positions[1:] - positions[:-1]
    expect = velocities[:-1] + np.array([0.0, 0.5 * G_FRAME])
    dv = velocities[1:] - velocities[:-1]
    if free.any():
        worst = max(float(np.max(np.abs(step[free] - expect[free]))),
                    float(np.max(np.abs(dv[free] - np.array([0.0, G_FRAME])))))
        if worst > 1e-9:
            errors.append(f"ballistic step violated by {worst:.3e}")
    if bounces[0]:
        errors.append("frame 0 carries a bounce flag")
    lo, hi = radius, size - 1 - radius
    if positions.min() < lo - 1e-9 or positions.max() > hi + 1e-9:
        errors.append("ball centre left the valid region")
    return errors


# ---- records --------------------------------------------------------------


def read_records(path: Path, dtypes: tuple[str, ...]) -> list[np.ndarray]:
    """Parse consecutive 'PITD' tensor records (u32 version, u32 ndim, u64 shape)."""
    blob = Path(path).read_bytes()
    out, pos = [], 0
    for dtype in dtypes:
        if blob[pos:pos + 4] != b"PITD":
            raise ValueError(f"{path}: bad magic at byte {pos}")
        _version, ndim = struct.unpack_from("<II", blob, pos + 4)
        shape = struct.unpack_from(f"<{ndim}Q", blob, pos + 12)
        pos += 12 + 8 * ndim
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        out.append(np.frombuffer(blob, dtype=dtype, count=nbytes // np.dtype(dtype).itemsize,
                                 offset=pos).reshape(shape))
        pos += nbytes
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return out


# ---- detector ---------------------------------------------------------------


def disk_template(radius: float) -> np.ndarray:
    size = 2 * int(round(radius)) + 3
    c = (size - 1) / 2.0
    ii = np.arange(size, dtype=float)[:, None]
    jj = np.arange(size, dtype=float)[None, :]
    disk = ((jj - c) ** 2 + (ii - c) ** 2 <= radius * radius).astype(float)
    return disk - disk.mean()


def ncc_reference(frame: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Spatial-domain zero-normalised correlation with the tracker's conventions.

    Windows are centred on each pixel over a zero-padded frame; windows whose
    normaliser is below 1e-4 of the largest one are zero, as are the border
    pixels whose window leaves the frame; negative correlations are zero.
    """
    k = template.shape[0]
    m = k // 2
    padded = np.pad(np.asarray(frame, dtype=np.float64), m)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k))
    t0 = template - template.mean()
    num = np.einsum("ijkl,kl->ij", windows, t0)
    centred = windows - windows.mean(axis=(2, 3), keepdims=True)
    den = np.sqrt(np.sum(t0 * t0)) * np.sqrt(np.einsum("ijkl,ijkl->ij", centred, centred))
    cutoff = max(1e-9, 1e-4 * float(den.max()))
    out = np.zeros_like(num)
    live = den > cutoff
    out[live] = num[live] / den[live]
    out[:m, :] = out[-m:, :] = 0.0
    out[:, :m] = out[:, -m:] = 0.0
    return np.maximum(out, 0.0)


def temporal_mean_frame(frames: np.ndarray, t: int) -> np.ndarray:
    """Frame t minus the mean of its 3-frame neighbourhood, rectified."""
    lo, hi = max(0, t - 1), min(len(frames), t + 2)
    stack = np.asarray(frames, dtype=np.float64)
    return np.maximum(stack[t] - stack[lo:hi].mean(axis=0), 0.0)


# ---- metrics ------------------------------------------------------------------


def per_frame(windows: np.ndarray) -> np.ndarray:
    """(N, T-2, 3, ...) window values -> (N, T, ...) by the middle-frame rule."""
    return np.concatenate([windows[:, :1, 0], windows[:, :, 1], windows[:, -1:, 2]], axis=1)


def read_predictions(path: Path) -> dict[int, dict[str, np.ndarray]]:
    """predictions.bin: per scale (ascending) B, H, P positions, V, bounce flags."""
    dtypes = ("<f8", "<f8", "<f8", "<f8", "<u1") * len(SCALES)
    records = read_records(path, dtypes)
    out = {}
    for k, s in enumerate(SCALES):
        b, h, p, v, flags = records[5 * k: 5 * k + 5]
        out[s] = {"B": b, "H": h, "P": p, "V": v, "bounce": flags.astype(bool)}
    return out


def sequence_metrics(preds, positions, velocities, bounces) -> dict[str, np.ndarray]:
    """Per-sequence L1 position/velocity errors and bounce mismatch rates."""
    out = {}
    for s in SCALES:
        for name in "BHP":
            err = np.abs(per_frame(preds[s][name]) - positions).sum(axis=2)
            out[f"{name}{s}"] = err.mean(axis=1)
        out[f"V{s}"] = np.abs(per_frame(preds[s]["V"]) - velocities).sum(axis=2).mean(axis=1)
        out[f"bounce{s}"] = (per_frame(preds[s]["bounce"]) != bounces).mean(axis=1)
    return out


def check_tracking(out_dir: Path, positions, velocities, bounces, size: int,
                   radius: float) -> tuple[list[str], dict[str, np.ndarray]]:
    """Windows, P range, metrics.csv against a recomputation from predictions.bin."""
    errors = []
    n, t = positions.shape[:2]
    preds = read_predictions(out_dir / "predictions.bin")
    for s in SCALES:
        for name in ("B", "H", "P", "V"):
            if preds[s][name].shape != (n, t - 2, 3, 2):
                errors.append(f"{name}{s}: windows shaped {preds[s][name].shape}")
        if preds[s]["bounce"].shape != (n, t - 2, 3):
            errors.append(f"bounce{s}: windows shaped {preds[s]['bounce'].shape}")
        p = preds[s]["P"]
        if p.min() < radius or p.max() > size - 1 - radius:
            errors.append(f"P{s} position outside [r, W-1-r]")
    if errors:
        return errors, {}

    per_seq = sequence_metrics(preds, positions, velocities, bounces)
    written = {}
    for line in (out_dir / "metrics.csv").read_text().splitlines()[1:]:
        _config, _rep, metric, value = line.split(",")
        written[metric] = float(value)
    if set(written) != set(METRICS):
        errors.append(f"metrics.csv holds {sorted(written)}")
    for m in METRICS:
        expect = float(per_seq[m].mean())
        if abs(written.get(m, np.nan) - expect) > 1e-9 * max(1.0, abs(expect)):
            errors.append(f"metrics.csv {m}={written.get(m)} but recomputed {expect}")
    return errors, per_seq


def check_acceptance(per_seq: dict[str, np.ndarray], noisy: bool) -> list[str]:
    """The paper's bounds over a split: clean mean P224 <= 1 px and median
    P224 <= median H224; noisy (with temporal mean) median P224 <= 2 px."""
    med_p, med_h = float(np.median(per_seq["P224"])), float(np.median(per_seq["H224"]))
    if noisy:
        return [f"noisy median P224 {med_p:.3f} > 2.0 px"] if med_p > 2.0 else []
    errors = []
    mean_p = float(per_seq["P224"].mean())
    if mean_p > 1.0:
        errors.append(f"clean mean P224 {mean_p:.3f} > 1.0 px")
    if med_p > med_h:
        errors.append(f"clean median P224 {med_p:.3f} > median H224 {med_h:.3f}")
    return errors


# ---- factorial ------------------------------------------------------------------


def terms() -> list[str]:
    return ["".join(c) for k in range(1, 7) for c in combinations(FACTORS, k)]


def label(index: int) -> str:
    return "".join(f"{f}{(index >> i) & 1}" for i, f in enumerate(FACTORS))


def signs(term: str) -> np.ndarray:
    """(64,) contrast of a term over config indices (A least significant)."""
    idx = np.arange(64)
    out = np.ones(64)
    for f in term:
        out *= np.where((idx >> FACTORS.index(f)) & 1, 1.0, -1.0)
    return out


def synth_results(rng: np.random.Generator, replicates: int):
    """Planted effects plus replicate offsets constant across configs.

    Returns the CSV text and {term: {metric: effect}}.  A response carries
    beta/2 * contrast for every term, so with the balanced +-1 design
    mean(high) - mean(low) is exactly beta, and the offsets cancel.
    """
    names = terms()
    beta = rng.uniform(-2.0, 2.0, size=(len(names), len(METRICS)))
    base = rng.uniform(1.0, 5.0, size=len(METRICS))
    offset = rng.uniform(-0.5, 0.5, size=(replicates, len(METRICS)))
    design = np.stack([signs(t) for t in names], axis=1)        # (64, 63)
    y = base + 0.5 * design @ beta                               # (64, M)
    lines = ["config,replicate,metric,value"]
    for c in range(64):
        for r in range(replicates):
            for j, m in enumerate(METRICS):
                lines.append(f"{label(c)},{r},{m},{float(y[c, j] + offset[r, j])!r}")
    planted = {t: {m: float(beta[i, j]) for j, m in enumerate(METRICS)}
               for i, t in enumerate(names)}
    return "\n".join(lines) + "\n", planted


def ranking(planted, group) -> list[tuple[str, float]]:
    rows = [(t, float(np.mean([planted[t][m] for m in group]))) for t in planted]
    return sorted(rows, key=lambda tv: (-abs(tv[1]), tv[0]))


def check_effects(out_dir: Path, planted, top: int) -> list[str]:
    """Planted effects recovered; aggregates linear; report ranked by |avg|."""
    errors = []
    got: dict[str, dict[str, float]] = {}
    for line in (out_dir / "effects.csv").read_text().splitlines()[1:]:
        term, metric, value = line.split(",")
        got.setdefault(term, {})[metric] = float(value)
    if sorted(got) != sorted(planted):
        return [f"effects.csv has {len(got)} terms, expected 63"]
    worst = max(abs(got[t][m] - planted[t][m]) for t in planted for m in METRICS)
    if worst > 1e-9:
        errors.append(f"planted effects recovered only to {worst:.3e}")
    for agg, group in (("enc_avg", ENCODER), ("dec_avg", DECODER)):
        gap = max(abs(got[t].get(agg, np.nan) - np.mean([got[t][m] for m in group]))
                  for t in planted)
        if not gap <= 1e-9:
            errors.append(f"{agg} effect is not the mean of its metrics ({gap:.3e})")

    sections = (out_dir / "effects_report.txt").read_text().split("Top effects, ")[1:]
    if len(sections) != 2:
        return errors + [f"report has {len(sections)} sections, expected 2"]
    for section, group in zip(sections, (ENCODER, DECODER)):
        rows = [ln.split() for ln in section.strip().splitlines()[2:]]
        expect = ranking(planted, group)[:top]
        if [r[0] for r in rows] != [t for t, _ in expect]:
            errors.append(f"report order {[r[0] for r in rows]} != {[t for t, _ in expect]}")
        elif any(abs(float(r[-1]) - avg) > 0.0051 for r, (_, avg) in zip(rows, expect)):
            errors.append("report group averages differ from the planted ones")
    return errors

"""End-to-end tracking with a matched-filter detector.

The detector is a zero-normalized cross-correlation against a disk
template.  It is deliberately not a learned model: it exists so the
extraction operators, the physics refinement, the losses and the metric
protocol can run end to end without any training.  Heatmaps are produced
as a (T, H, W) stack by one correlator call (the template spectra are
computed once per call, and each frame costs 5 FFTs) and average-pooled to
the 112 and 56 grids, mirroring a three-scale pyramid.

Per 3-frame window and per scale, three position estimates are extracted:
B (differentiable expectation operator for that scale), H (hard argmax) and
P (physics-refined B, all windows in one physics call), plus velocities V
and bounce indicators, each as one array over the windows.  Metrics are
mean L1 errors in full-resolution image coordinates; each frame's
prediction is taken from the window in which it is the center frame
(sequence endpoints use the only covering window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from io import StringIO

import numpy as np
from scipy.fft import irfft2, next_fast_len, rfft2
from scipy.signal import fftconvolve  # noqa: F401  (unused; kept for bench/spans.py's FFT counter)

from .heatmaps import expectation_for_scale, hard_argmax
from .physics import physics_refine_window, to_frame_units
from .sim import SimConfig, Trajectory
from .video import VideoSequence

__all__ = [
    "MetricTable",
    "METRICS",
    "disk_template",
    "ncc_heatmap",
    "downscale_heatmap",
    "track_sequence",
    "evaluate",
    "evaluate_sequences",
    "metrics_to_csv",
    "metrics_from_csv",
]

SCALES = (56, 112, 224)
METRICS = tuple(
    [f"{m}{s}" for m in ("B", "H", "P") for s in SCALES]
    + [f"V{s}" for s in SCALES]
    + [f"bounce{s}" for s in SCALES]
)

@dataclass
class MetricTable:
    """Mean metric values plus the per-sequence breakdown behind them."""

    values: dict[str, float]
    per_sequence: dict[str, np.ndarray] = field(default_factory=dict)

    def median(self, metric: str) -> float:
        return float(np.median(self.per_sequence[metric]))


def disk_template(radius: float) -> np.ndarray:
    """Zero-mean filled-disk template on a (2r+3)^2 grid."""
    if radius < 1:
        raise ValueError("template radius must be >= 1")
    size = 2 * int(round(radius)) + 3
    c = (size - 1) / 2.0
    ii = np.arange(size, dtype=float)[:, None]
    jj = np.arange(size, dtype=float)[None, :]
    disk = ((jj - c) ** 2 + (ii - c) ** 2 <= radius * radius).astype(float)
    return disk - disk.mean()


def ncc_heatmap(frames: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Zero-normalized cross-correlation heatmaps of (..., H, W) frames,
    negatives suppressed.

    Border pixels whose template window would leave the frame are zero, as
    are windows with (near-)zero variance.  As in Lewis 1995, the spectra of
    the flipped template and of the all-ones window are taken once per call
    and each frame costs 5 transforms: its spectrum, its square's, and the
    inverses giving the numerator, sum and sum of squares.  Transform shape,
    products and "same" slice are those of ``fftconvolve``, so each map has
    the bits of three ``fftconvolve`` calls.
    """
    frames = np.asarray(frames, dtype=np.float64)
    t0 = template - template.mean()
    t_norm = np.sqrt(np.sum(t0 * t0))
    n = template.size

    (h, w), (kh, kw) = frames.shape[-2:], template.shape
    fshape = (next_fast_len(h + kh - 1, True), next_fast_len(w + kw - 1, True))
    same = (slice((kh - 1) // 2, (kh - 1) // 2 + h), slice((kw - 1) // 2, (kw - 1) // 2 + w))
    flipped_spec = rfft2(t0[::-1, ::-1], fshape)
    ones_spec = rfft2(np.ones_like(template), fshape)

    out = np.empty(frames.shape)
    for frame, hm in zip(frames.reshape(-1, h, w), out.reshape(-1, h, w)):
        spec = rfft2(frame, fshape)
        num = irfft2(spec * flipped_spec, fshape)[same]
        s1 = irfft2(spec * ones_spec, fshape)[same]
        s2 = irfft2(rfft2(frame * frame, fshape) * ones_spec, fshape)[same]
        var = np.maximum(s2 - s1 * s1 / n, 0.0)
        den = t_norm * np.sqrt(var)

        # windows with no meaningful structure (near-zero variance, absolutely
        # or relative to the liveliest window) would normalize rounding residue
        # up to O(1) correlations; treat them as empty instead
        cutoff = max(1e-9, 1e-4 * float(den.max()))
        hm[...] = np.where(den > cutoff, num / (den + 1e-12), 0.0)
    margin = template.shape[0] // 2
    out[..., :margin, :] = 0.0
    out[..., -margin:, :] = 0.0
    out[..., :, :margin] = 0.0
    out[..., :, -margin:] = 0.0
    return np.maximum(out, 0.0, out=out)


def _avg_pool(hm: np.ndarray, k: int) -> np.ndarray:
    """k x k mean of (..., H, W) by output-sized strided sums: each block row
    left to right, then the rows top to bottom, as ``reshape().mean()`` rounds."""
    out = sum((hm[..., 0::k, j::k] for j in range(1, k)), hm[..., 0::k, ::k])
    for i in range(1, k):
        out += sum((hm[..., i::k, j::k] for j in range(1, k)), hm[..., i::k, ::k])
    out /= k * k
    return out


def downscale_heatmap(hm224: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average-pool full-resolution heatmaps (..., H, W) to the 112 and 56 grids."""
    return _avg_pool(hm224, 2), _avg_pool(hm224, 4)


def _detector_frames(frames: np.ndarray, temporal_mean: bool) -> np.ndarray:
    """Frames fed to the correlator.

    With ``temporal_mean`` each frame has the mean of its 3-frame
    neighborhood subtracted and is then rectified.  The noise background is
    static, so the subtraction cancels it exactly; rectification drops the
    negative imprints of the neighboring frames' ball (which would otherwise
    correlate positively with the template ring and drag global centroids).
    """
    work = np.asarray(frames, dtype=np.float64)
    if not temporal_mean:
        return work
    out = work.copy()  # neighborhood sums in the order (previous + own) + next
    out[1:] += work[:-1]
    out[:-1] += work[1:]
    out /= np.r_[2.0, np.full(len(work) - 2, 3.0), 2.0][:, None, None]
    return np.maximum(np.subtract(work, out, out=out), 0.0, out=out)


def track_sequence(video: VideoSequence, cfg: SimConfig,
                   temporal_mean: bool = False) -> dict[int, dict[str, np.ndarray]]:
    """Track one sequence; returns per-scale window arrays.

    ``{scale: {"B", "H", "P", "V": (T-2, 3, 2), "bounce": (T-2, 3)}}`` with
    the estimates named in the module docstring.  Windows are independent of
    each other: each one sees only its own three frames, so there is no
    rollout and no error accumulation.
    """
    n_frames = len(video.frames)
    if n_frames < 3:
        raise ValueError("tracking needs at least 3 frames")
    if cfg.image_size % 4 != 0:
        raise ValueError("the heatmap pyramid needs an image size divisible by 4")

    template = disk_template(cfg.radius_px)
    params = to_frame_units(cfg)
    work = _detector_frames(video.frames, temporal_mean)

    hm224 = ncc_heatmap(work, template)
    hm112, hm56 = downscale_heatmap(hm224)

    windows = np.arange(n_frames - 2)[:, None] + np.arange(3)  # (T-2, 3) frame indices
    predictions = {}
    for s, heatmaps in ((56, hm56), (112, hm112), (224, hm224)):
        a = 224 / s
        op = expectation_for_scale(s)
        # per frame: on a (40, 224, 224) stack the operator temporaries add ~46 MB of peak memory
        b = a * np.array([op(hm) for hm in heatmaps])[windows]
        h = a * hard_argmax(heatmaps)[windows]
        win = physics_refine_window(b, params)
        predictions[s] = {"B": b, "H": h, "P": win.positions, "V": win.velocities,
                          "bounce": win.bounced}
    return predictions


def _per_frame(windows: np.ndarray) -> np.ndarray:
    """(T-2, 3, ...) window values -> (T, ...) by the middle-frame convention."""
    return np.concatenate([windows[:1, 0], windows[:, 1], windows[-1:, 2]])


def evaluate(predictions: dict[int, dict[str, np.ndarray]], gt: Trajectory) -> dict[str, float]:
    """Per-sequence mean metrics (L1 position/velocity, bounce mismatch)."""
    n_frames = len(gt)
    if any(len(w) != n_frames - 2 for arrays in predictions.values() for w in arrays.values()):
        raise ValueError("window count does not match trajectory length")

    out: dict[str, float] = {}
    for s, arrays in predictions.items():
        for name in "BHP":
            pred = _per_frame(arrays[name])
            out[f"{name}{s}"] = float(np.mean(np.sum(np.abs(pred - gt.positions_px), axis=1)))
        v_pred = _per_frame(arrays["V"])
        out[f"V{s}"] = float(np.mean(np.sum(np.abs(v_pred - gt.velocities_fu), axis=1)))
        b_pred = _per_frame(arrays["bounce"])
        out[f"bounce{s}"] = float(np.mean(b_pred != gt.bounce_flags))
    return out


def evaluate_sequences(per_sequence_metrics: list[dict[str, float]]) -> MetricTable:
    """Aggregate per-sequence metrics: mean over sequences, keep breakdown."""
    per_seq = {m: np.array([d[m] for d in per_sequence_metrics]) for m in METRICS}
    values = {m: float(per_seq[m].mean()) for m in METRICS}
    return MetricTable(values=values, per_sequence=per_seq)


def metrics_to_csv(table: MetricTable, config_label: str, replicate: int) -> str:
    """Render the metric table as ``config,replicate,metric,value`` rows."""
    buf = StringIO()
    buf.write("config,replicate,metric,value\n")
    for metric in METRICS:
        buf.write(f"{config_label},{replicate},{metric},{table.values[metric]:.17g}\n")
    return buf.getvalue()


def metrics_from_csv(text: str) -> list[tuple[str, int, str, float]]:
    """Parse rows written by :func:`metrics_to_csv` (or compatible files).

    Blank lines are skipped; ``ValueError`` names the line of a malformed row,
    or says that the file has no data rows.
    """
    rows = []
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].strip().lower() != "config,replicate,metric,value":
        first = lines[0][0] if lines else 1
        raise ValueError(f"line {first}: results CSV must start with 'config,replicate,metric,value'")
    if len(lines) == 1:
        raise ValueError("no data rows")
    for i, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 4:
            raise ValueError(f"line {i}: expected 4 fields (config,replicate,metric,value), "
                             f"found {len(fields)}")
        try:
            rows.append((fields[0], int(fields[1]), fields[2], float(fields[3])))
        except ValueError as err:
            raise ValueError(f"line {i}: {err}") from None
    return rows


"""End-to-end tracking with a matched-filter detector.

The detector is a zero-normalized cross-correlation against a disk
template.  It is deliberately not a learned model: it exists so the
extraction operators, the physics refinement, the losses and the metric
protocol can run end to end without any training.  Heatmaps are produced
for a (T, H, W) stack by one correlator call (:func:`ncc_heatmap`) and
average-pooled into the ``{scale: maps}`` pyramid of ``POOLING``.  From the
correlator to the operators the maps are held as row windows
(:class:`~balltrack.heatmaps.RowBands`), and no stage builds a dense (T, H,
W) map: each window, of one common height, holds the rows its frame
reaches in whole blocks of the largest pooling factor, and every stage keeps
the bits of the same stage over whole frames; a dense frame makes the
windows whole frames.  The correlator's input is the stack's nonzero rows,
which the temporal mean builds without a dense stack; an array of frames is
turned into its nonzero rows and takes the same path, and only
``RowBands.dense()`` turns its windows back into whole maps.  The pixels are
checked for NaN and infinity on those gathered rows and frame 0, not on the
whole stack.  The correlator takes its window sums only on the rows that
each frame's nonzero rows reach, guarded by a bound on the FFT rounding
residue of the rows it skips, and runs its row transforms, its residue
bounds and its elementwise tail once per batch of frames whose reached rows
fit in one frame's height.  Its column passes, the template's included, run
along the last axis of transposed spectra, over each image's nonzero rows.

Per 3-frame window and per scale, three position estimates are extracted:
B (the scale's expectation operator, one call on the stack's windows whose
second pass reads a 7x7 or 4x4 block of each frame), H (hard argmax) and
P (physics-refined B, all windows in one physics call), plus velocities V
and bounce indicators, each as one array over the windows.  The output
schema is two tables: ``ESTIMATES`` (names and record types) and
``POOLING`` (scales, pooling factors and the B operators' names);
``METRICS``, ``evaluate``'s metrics and the records of ``predictions.bin``
loop over them.  Metrics are mean L1 errors in full-resolution image
coordinates; each frame's prediction is taken from the window in which it
is the center frame (sequence endpoints use the only covering window).
``track_split`` tracks a split one sequence at a time and scores the
stacked window arrays of all its sequences in one ``evaluate`` call.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import heatmaps
from .heatmaps import RowBands, _bands, hard_argmax
from .physics import physics_refine_window, to_frame_units
from .sim import SimConfig, Trajectory, window_index
from .video import VideoSequence, _disk, _Split, _write_record

__all__ = [
    "ESTIMATES",
    "POOLING",
    "METRICS",
    "disk_template",
    "ncc_heatmap",
    "downscale_heatmap",
    "track_sequence",
    "evaluate",
    "track_split",
    "metrics_to_csv",
    "per_sequence_to_csv",
    "write_predictions",
    "metrics_columns_from_csv",
    "metrics_from_csv",
]

# each window estimate and its record type in predictions.bin: B, H and P
# positions and V velocities (..., 3, 2), bounce flags (..., 3)
ESTIMATES = {"B": "<f8", "H": "<f8", "P": "<f8", "V": "<f8", "bounce": "<u1"}
# pyramid scale -> average-pooling factor of its heatmaps from the full-resolution ones,
# and the name of the ``heatmaps`` operator that extracts B at that scale
POOLING = {56: (4, "coarse_to_fine_expectation"), 112: (2, "biquadratic_expectation"),
           224: (1, "bicubic_expectation")}
SCALES = tuple(POOLING)
_BLOCK = max(k for k, _ in POOLING.values())  # image sizes and row windows come in whole blocks of this side
_POOL_CHUNK_FRAMES = 4  # full frames' worth of rows that one strided pooling pass reads
METRICS = tuple(f"{name}{s}" for name in ESTIMATES for s in SCALES)
_CSV_HEADER = "config,replicate,metric,value"


def __getattr__(name):
    # bench/spans.py reads and patches ``tracker.fftconvolve`` for its FFT
    # counter; import it on that first access so no command pays for scipy.signal
    if name == "fftconvolve":
        from scipy.signal import fftconvolve
        return fftconvolve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def disk_template(radius: float) -> np.ndarray:
    """Zero-mean filled-disk template on a (2r+3)^2 grid."""
    if radius < 1:
        raise ValueError("template radius must be >= 1")
    size = 2 * int(round(radius)) + 3
    c = (size - 1) / 2.0
    disk = _disk((c, c), radius, size, float)
    return disk - disk.mean()


# safety factor of the FFT rounding bound in ``_residue_bounds``
_FFT_ERROR_FACTOR = 10.0


def _residue_bounds(sq, starts, size, n):
    """Bounds on the square root of the window variance, computed by FFT, at
    the rows that no nonzero value of a frame reaches, one per frame whose
    squared values are the rows of ``sq`` from ``starts``.

    Such a window sum is exact zero plus the FFT convolution's rounding
    error, at most ``c log2(size) u ||k||_1 ||x||_2`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 24): ``B1`` with the frame's
    values x, ``B2`` with their squares, for the all-ones window of ``n``
    pixels (``||k||_1 = n``) and transforms of ``size`` points.  The variance
    ``s2 - s1^2/n`` is then at most ``B2 + B1^2/n``.  The norms are summed
    row by row, so they round unlike a frame's own sum, far inside the
    bound's safety factor.  A frame with a non-finite value or square gives a
    non-finite bound.
    """
    scale = _FFT_ERROR_FACTOR * np.log2(size) * np.finfo(np.float64).eps / 2 * n
    with np.errstate(over="ignore", invalid="ignore"):
        b1, b2 = scale * np.sqrt(np.add.reduceat([sq.sum(axis=-1), (sq * sq).sum(axis=-1)], starts, axis=-1))
        return np.sqrt(b2 + b1 * b1 / n)


class _StackRows(NamedTuple):
    """A ``(T, H, W)`` stack held as its nonzero rows: ``values[i]`` is row
    ``row[i]`` of frame ``frame[i]``, in frame order and row order within a
    frame, and every other row is zero.  ``values`` keeps its own dtype."""

    shape: tuple[int, int, int]
    frame: np.ndarray
    row: np.ndarray
    values: np.ndarray


def _nonzero_rows(frames: np.ndarray) -> _StackRows:
    """The nonzero rows of (..., H, W) frames; with no zero row, ``values``
    is a view of the frames."""
    *_, h, w = frames.shape
    flat = frames.reshape(-1, w)
    at = np.flatnonzero(flat.any(axis=-1))
    frame, row = np.divmod(at, h)
    return _StackRows((len(flat) // h, h, w), frame, row, flat if len(at) == len(flat) else flat[at])


def ncc_heatmap(frames: np.ndarray | _StackRows, template: np.ndarray) -> np.ndarray | RowBands:
    """Zero-normalized cross-correlation heatmaps, negatives suppressed, of
    a (T, H, W) stack given as its nonzero rows (as :func:`_detector_frames`
    gives it) as a :class:`~balltrack.heatmaps.RowBands`.  (..., H, W) frames
    are first turned into their nonzero rows and take the same path; their
    maps come back through ``RowBands.dense()`` in the frames' shape.

    Border pixels whose template window would leave the frame are zero, as
    are windows with (near-)zero variance.  As in Lewis 1995, the spectra of
    the flipped template and of the all-ones window are taken once per call;
    each frame needs its spectrum, its square's, and the inverses giving the
    numerator, sum and sum of squares.

    Each 2-D transform is a row pass and a column pass, run as ``rfft2`` and
    ``irfft2`` run them: forward r2c along rows then c2c along columns, inverse
    c2c along columns then c2r along rows with the one 1/(P*Q) scale.  The
    column spectra are held transposed, (Q//2+1, P), the two kernels' too, so
    every column pass is a c2c along the contiguous last axis; each column is
    the same transform either way.  A zero row has a zero spectrum row, so the
    forward row pass takes only an image's nonzero rows, and only those are
    copied into the zero-padded column buffer: the template's kh rows, for
    both kernels in one row pass and one column pass, and each frame's
    nonzero rows.  Each row of the inverse row pass depends only on its own
    row, so only the rows kept are copied out of the inverse column pass, and
    the inverse row pass runs on those alone.  For the two window sums these
    are the rows the frame's nonzero rows ``r`` reach: "same" row i reads
    frame rows i+top-kh+1 .. i+top of a kh-row template, so rows
    ``[r[0] - top, r[-1] + kh - 1 - top]`` within the frame.  The variance,
    the denominator, the cutoff and the live mask are taken on those rows
    only, and every other row is not live.  An FFT leaves rounding residue on
    those other rows; they are skipped only when :func:`_residue_bounds`, times
    the template norm, is below the cutoff, so that the residue could neither
    pass the cutoff nor move ``den.max()`` or the 1e-9 floor.  Otherwise (a
    NaN, an infinity or a square that overflows) the frame is run again with
    its window sums on all H rows.  For the numerator the inverse row pass
    runs only on the rows where some window passes the cutoff (every other
    pixel is zero).  Transform shape, products and slice are those of
    ``fftconvolve``, so each map has the bits of three ``fftconvolve`` calls.

    Row passes and the tail run per batch: consecutive frames whose reached
    rows total at most H, so a dense frame is a batch of its own.  A batch
    takes one forward row pass over its nonzero rows.  A batch whose values
    are all 0 or 1 is bitwise its own square, so it reuses its sum as its sum
    of squares; any other batch takes one more row pass, over its rows
    squared, and a sum-of-squares column pass per frame (a 0/1 frame among
    them gets the bits of its sum).  Each frame's column passes run
    one by one and copy the rows they reach into H-row buffers.  One
    inverse row pass per window sum, one variance-to-live-mask tail (each
    frame's cutoff from its own ``den.max()``) and one inverse row pass of
    the live numerator rows serve the whole batch.  The residue bounds of a
    batch's frames come from one pass over its rows (a batch that is one
    frame reaching every row skips nothing and needs none); the guard stays
    per frame, and a frame it fails is swept alone, as a batch of its own
    that reaches every row.  Only a batch's rows are converted to float64,
    and only its live numerator rows get the rest of the arithmetic; a frame
    of zeros gives a map of zeros and runs no transform.

    The maps are written straight into their row windows, sized before any
    transform: each window holds the rows its frame's window sums reach,
    rounded out to whole aligned blocks of the largest ``POOLING`` factor so
    that the pooled windows line up too, and all windows take the tallest
    one's height, at least one block.  A dense frame reaches every row, so
    its stack's windows are whole maps, as are all windows once the residue
    guard sweeps a frame; ``dense()`` then hands back the windows themselves.
    """
    from scipy.fft import fft, ifft, irfft, next_fast_len, rfft  # here, so only tracking loads scipy
    stack = frames if isinstance(frames, _StackRows) else _nonzero_rows(np.asarray(frames))
    t0 = template - template.mean()
    t_norm = np.sqrt(np.sum(t0 * t0))
    n = template.size

    (n_maps, h, w), (kh, kw) = stack.shape, template.shape
    p, q = next_fast_len(h + kh - 1, True), next_fast_len(w + kw - 1, True)
    top, cols = (kh - 1) // 2, slice((kw - 1) // 2, (kw - 1) // 2 + w)
    margin = kh // 2
    # irfft2's scale: pocketfft's long-double 1/(P*Q) rounds to this double
    # for every 5-smooth P*Q below 9e15
    scale = 1.0 / (p * q)

    def column(spectra, rows):
        # rfft2 at (P, Q), transposed to (..., Q//2+1, P), of the images whose
        # nonzero rows ``rows`` have the (..., rows, Q//2+1) row spectra ``spectra``
        buf = np.zeros((*spectra.shape[:-2], q // 2 + 1, p), complex)
        buf[..., rows] = np.swapaxes(spectra, -1, -2)
        return fft(buf, axis=-1, overwrite_x=True)

    flipped_spec, ones_spec = column(rfft([t0[::-1, ::-1], np.ones_like(template)], q, axis=-1), np.arange(kh))

    def inverse(part):
        # irfft2(spec, (P, Q))[rows, cols] from those rows of the inverse column pass
        return irfft(part, q, axis=-1, norm="forward")[:, cols] * scale

    first = np.searchsorted(stack.frame, np.arange(n_maps + 1))  # frame f: stack rows first[f:f+2]
    # the frames holding some nonzero row and the rows [lo, hi) their window sums reach
    held = np.flatnonzero(first[1:] > first[:-1])
    lo = np.maximum(stack.row[first[held]] - top, 0)
    hi = np.minimum(stack.row[first[held + 1] - 1] + kh - top, h)
    # each map's window: rows [base, base + b), its reach in whole blocks, as tall as the tallest one
    start, stop = lo // _BLOCK * _BLOCK, -(-hi // _BLOCK) * _BLOCK
    b = min(int(np.max(stop - start, initial=_BLOCK)), h)
    base = np.zeros(n_maps, int)
    base[held] = np.minimum(start, h - b)
    maps = np.zeros((n_maps, b, w))
    # a batch's rows of the inverse column passes: sum, sum of squares, numerator
    s1_buf, s2_buf, num_buf = np.empty((3, h, q // 2 + 1), complex)

    def correlate(fs, lo, hi):
        """Write the maps of consecutive frames ``fs``, whose window sums run
        on rows [lo, hi), at most H rows in all; return the frames whose
        residue bound fails."""
        reach = hi - lo
        off = np.cumsum(reach) - reach  # each frame's first row in the buffers
        starts, counts = first[fs] - first[fs[0]], first[fs + 1] - first[fs]  # each frame's rows in x
        x = stack.values[first[fs[0]]:first[fs[-1] + 1]].astype(np.float64, copy=False)
        sq = x * x
        binary = np.array_equal(sq.view(np.uint64), x.view(np.uint64))  # every value 0 or 1
        # each row spectrum's column passes and the buffer of their rows
        passes = [(rfft(x, q, axis=-1), [(s1_buf, ones_spec), (num_buf, flipped_spec)])]
        if not binary:
            passes.append((rfft(sq, q, axis=-1), [(s2_buf, ones_spec)]))
        # rows outside [lo, hi) hold FFT rounding residue; they are skipped
        # only when its bound cannot reach the cutoff.  A frame that reaches
        # every row, always a batch of its own, skips none.  The bounds are
        # taken here so that x and sq are freed before the column passes,
        # which keeps the working set small
        bound = np.zeros(1) if reach[0] == h else _residue_bounds(sq, starts, p * q, n) * t_norm
        del x, sq
        # each column pass's reached rows are copied, so that no view keeps a
        # whole column pass alive, and a frame's column spectrum is dropped
        # before the next is formed
        for f, a, m, o, l, r in zip(fs.tolist(), starts.tolist(), counts.tolist(), off.tolist(), lo.tolist(),
                                    hi.tolist()):
            rows, keep = stack.row[first[f]:first[f] + m], slice(top + l, top + r)
            for row_spectra, kernels in passes:
                spec = column(row_spectra[a:a + m], rows)
                for buf, kernel_spec in kernels:  # rows ``keep`` of the inverse column pass
                    buf[o:o + r - l] = ifft(spec * kernel_spec, norm="forward", overwrite_x=True)[:, keep].T
                del spec
        s1 = inverse(s1_buf[:reach.sum()])
        s2 = s1 if binary else inverse(s2_buf[:reach.sum()])  # a 0/1 batch's sum of squares is its sum
        # windows with no meaningful structure (near-zero variance, absolutely
        # or relative to the frame's liveliest window) would normalize rounding
        # residue up to O(1) correlations; the cutoff treats them as empty.
        # den = t_norm * sqrt(max(s2 - s1 * s1 / n, 0)), in place
        den = s1 * s1
        den /= n
        np.sqrt(np.maximum(np.subtract(s2, den, out=den), 0.0, out=den), out=den)
        den *= t_norm
        cutoff = np.fmax(1e-9, 1e-4 * np.maximum.reduceat(den.ravel(), off * w))
        live = den > np.repeat(cutoff, reach)[:, None]
        swept = ~(bound < cutoff)  # a NaN bound too
        live[np.repeat(swept, reach)] = False
        at = np.flatnonzero(live.any(axis=-1))
        num = inverse(num_buf[at])
        row = (np.repeat(lo - off, reach) + np.arange(len(den)))[at]  # each numerator row's row of its map
        frame = np.repeat(fs, reach)[at]
        # the numerator normalized where live, in place; border rows and
        # columns are zero
        inner = (row >= margin) & (row < h - margin)
        d = den[at]
        d += 1e-12
        np.divide(num, d, out=num)
        np.copyto(num, 0.0, where=~(live[at] & inner[:, None]))
        num[:, :margin] = 0.0
        num[:, w - margin:] = 0.0
        maps.reshape(-1, w)[frame * b + row - base[frame]] = np.maximum(num, 0.0, out=num)
        return fs[swept]

    # batches of consecutive frames holding some nonzero row, whose reached
    # rows [lo, hi) total at most H
    batches, size = [], h
    for i, reach in enumerate((hi - lo).tolist()):
        if size + reach > h:
            batches.append([])
            size = 0
        batches[-1].append(i)
        size += reach
    for batch in batches:
        for f in correlate(held[batch], lo[batch], hi[batch]):
            if b < h:  # the frame reaches every row: every window becomes its whole map
                maps, base, b = RowBands(maps, base, h).dense(), np.zeros(n_maps, int), h
            correlate(np.array([f]), np.array([0]), np.array([h]))  # the window sums on every row
    bands = RowBands(maps, base, h)
    return bands if stack is frames else bands.dense().reshape(np.shape(frames))


def _avg_pool(hm: np.ndarray, k: int, chunk_rows: int) -> np.ndarray:
    """k x k mean of (..., H, W) by output-sized strided sums: each block row
    left to right, then the rows top to bottom, as ``reshape().mean()`` rounds.

    The maps are pooled ``chunk_rows // H`` at a time (at least one): strided
    passes over a whole dense stack are memory-bound.
    """
    *lead, h, w = hm.shape
    maps = hm.reshape(-1, h, w)
    step = max(1, chunk_rows // h)
    parts = []
    for chunk in (maps[at:at + step] for at in range(0, len(maps), step)):
        pooled = sum((chunk[:, 0::k, j::k] for j in range(1, k)), chunk[:, 0::k, ::k])
        for i in range(1, k):
            pooled += sum((chunk[:, i::k, j::k] for j in range(1, k)), chunk[:, i::k, ::k])
        parts.append(pooled)
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    out /= k * k
    return out.reshape(*lead, h // k, w // k)


def downscale_heatmap(hm224: np.ndarray | RowBands) -> dict[int, np.ndarray | RowBands]:
    """``{scale: maps}`` over ``SCALES``: full-resolution heatmaps (..., H, W)
    average-pooled by each ``POOLING`` factor, the factor-1 entry ``hm224`` itself.

    Of a :class:`~balltrack.heatmaps.RowBands` whose windows start and end on
    whole blocks of the largest pooling factor, as :func:`ncc_heatmap` makes
    them, only the windows are pooled, into a ``RowBands`` per scale: every
    other pooled pixel is a sum of zeros.
    """
    window, first, h = _bands(hm224)

    def pooled(k):
        maps = _avg_pool(window, k, _POOL_CHUNK_FRAMES * h)
        return RowBands(maps, first // k, h // k) if isinstance(hm224, RowBands) else maps

    return {s: hm224 if k == 1 else pooled(k) for s, (k, _) in POOLING.items()}


def _check_finite(frames: np.ndarray, *rows: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first of ``frames`` with a NaN or
    infinite pixel when one of ``rows``, rows of those frames, holds one."""
    if not all(np.isfinite(part).all() for part in rows):
        bad = np.flatnonzero(~np.isfinite(frames).all(axis=(1, 2)))[0]
        raise ValueError(f"frame {bad} holds a non-finite pixel")


def _detector_frames(frames: np.ndarray, temporal_mean: bool) -> _StackRows:
    """The nonzero rows of the frames fed to the correlator, in float64 with
    ``temporal_mean`` and in the frames' own dtype without it.

    With ``temporal_mean`` each frame has the mean of its 3-frame
    neighborhood subtracted and is then rectified.  The noise background is
    static, so the subtraction cancels it exactly; rectification drops the
    negative imprints of the neighboring frames' ball (which would otherwise
    correlate positively with the template ring and drag global centroids).
    Only rows that differ from a neighboring frame's, bit for bit, are
    computed, and no dense stack is built.  The rest are 0: for finite
    float32 ``x``, the frames' dtype, the float64 ``(x + x) + x`` is exactly
    3x, ``3x / 3`` exactly x, and x - x is +0.0.  A computed row that
    rectifies to zeros is left out too.

    A NaN or infinite pixel raises ``ValueError`` naming the first frame that
    holds one, before any arithmetic on it.  Only frame 0 and the rows
    gathered here are checked, which covers every pixel: such a pixel makes
    its row nonzero, and with ``temporal_mean`` a row that did not change has
    the bits of the first row of its run of equal rows, which is in frame 0 or
    changed.  The whole stack is scanned only to name the frame.
    """
    if not temporal_mean:
        stack = _nonzero_rows(frames)
        _check_finite(frames, stack.values)
        return stack
    n, h, w = frames.shape
    bits = frames.view(f"u{frames.itemsize}")
    step = (bits[1:] != bits[:-1]).any(axis=-1)  # (T-1, H): row r changes from t to t+1
    changed = np.zeros((n, h), bool)
    changed[1:] |= step
    changed[:-1] |= step
    t, r = np.nonzero(changed)
    flat, at = frames.reshape(n * h, w), t * h + r
    own = flat[at]
    _check_finite(frames, frames[0], own)
    own = own.astype(np.float64)
    mean = own.copy()  # neighborhood sums in the order (previous + own) + next
    mean[t > 0] += flat[at[t > 0] - h]
    mean[t < n - 1] += flat[at[t < n - 1] + h]
    mean /= np.where((t > 0) & (t < n - 1), 3.0, 2.0)[:, None]
    values = np.maximum(np.subtract(own, mean, out=mean), 0.0, out=mean)
    keep = values.any(axis=-1)
    return _StackRows((n, h, w), t[keep], r[keep], values[keep])


def track_sequence(video: VideoSequence, cfg: SimConfig,
                   temporal_mean: bool = False) -> dict[int, dict[str, np.ndarray]]:
    """Track one sequence; returns per-scale window arrays.

    ``{scale: {"B", "H", "P", "V": (T-2, 3, 2), "bounce": (T-2, 3)}}`` over
    the scales of ``POOLING``, with the estimates named in the module
    docstring.  Windows are independent of each other: each one sees only
    its own three frames, so there is no rollout and no error accumulation.
    Frames not of ``cfg.image_size`` and a frame holding a NaN or infinite
    pixel (the first such is named) raise ``ValueError``, and so does a radius
    below 1 px (``SimConfig`` admits it), all before any transform.
    """
    n_frames = len(video.frames)
    if n_frames < 3:
        raise ValueError("tracking needs at least 3 frames")
    if cfg.image_size % _BLOCK != 0:
        factors = " and ".join(f"{k}x" for k, _ in sorted(POOLING.values()) if k > 1)
        raise ValueError(f"image size {cfg.image_size} is not divisible by {_BLOCK}, which the "
                         f"{factors} pooling of the heatmap pyramid needs")
    if video.frames.shape[1:] != (cfg.image_size,) * 2:
        size = "x".join(map(str, video.frames.shape[1:]))
        raise ValueError(f"frames of {size} px do not match the image size {cfg.image_size}")
    rows = _detector_frames(video.frames, temporal_mean)  # checks the pixels the correlator would blank silently

    template = disk_template(cfg.radius_px)
    params = to_frame_units(cfg)
    pyramid = downscale_heatmap(ncc_heatmap(rows, template))

    windows = window_index(n_frames)
    predictions = {}
    for s, (k, operator) in POOLING.items():
        # looked up by name on each call, so that a wrapper put in heatmaps' namespace (a tracer's) is called
        b = float(k) * getattr(heatmaps, operator)(pyramid[s])[windows]
        h = float(k) * hard_argmax(pyramid[s])[windows]
        win = physics_refine_window(b, params)
        predictions[s] = {"B": b, "H": h, "P": win.positions_px, "V": win.velocities_fu,
                          "bounce": win.bounce_flags}
    return predictions


def evaluate(predictions: dict[int, dict[str, np.ndarray]], gt: Trajectory) -> dict[str, np.ndarray]:
    """Mean metrics per sequence, ``{metric: array}`` in ``METRICS`` order: L1
    position and velocity error, bounce mismatch.

    Window arrays ``(..., T-2, 3, 2)`` (bounce ``(..., T-2, 3)``) are scored
    against a ground-truth :class:`Trajectory` (``(..., T)`` frames) of the
    same leading shape; each metric comes back as one array of that leading
    shape, so one sequence gives 0-d values and a stacked split of N
    sequences ``(N,)`` ones.  A window array of any other shape raises
    ``ValueError``: nothing is broadcast.  Each frame is scored by the window
    in which it is the center frame; the endpoints by the only window that
    covers them.
    """
    *lead, n_frames = np.shape(gt.bounce_flags)
    if n_frames < 3:
        raise ValueError("evaluation needs at least 3 frames")
    windows = (*lead, n_frames - 2, 3)
    for s, arrays in predictions.items():
        for key, w in arrays.items():
            want = windows if key == "bounce" else (*windows, 2)
            if np.shape(w) != want:
                raise ValueError(f"{key}{s}: windows of shape {np.shape(w)}, expected {want} "
                                 f"for ground truth of shape {(*lead, n_frames)}")

    # frame t -> (window, slot) by the middle-frame convention
    at = (slice(None),) * len(lead) + (np.r_[0, np.arange(n_frames - 2), n_frames - 3],
                                       np.r_[0, np.ones(n_frames - 2, int), 2])
    out: dict[str, np.ndarray] = {}
    for name in ESTIMATES:
        for s, arrays in predictions.items():
            framed = arrays[name][at]
            if name == "bounce":
                miss = framed != gt.bounce_flags
            else:
                miss = np.abs(framed - (gt.velocities_fu if name == "V" else gt.positions_px)).sum(axis=-1)
            out[f"{name}{s}"] = miss.mean(axis=-1)
    return out


def track_split(sequences: Iterable[VideoSequence], cfg: SimConfig, temporal_mean: bool = False
                ) -> tuple[dict[str, np.ndarray], dict[int, dict[str, np.ndarray]]]:
    """Track every sequence of a split, then score them all in one pass.

    ``sequences`` may be any iterable, a generator included: each sequence is
    tracked with :func:`track_sequence` and only its window predictions and
    trajectory are kept, so a generator holds one sequence's frames at a time.
    A split of :func:`~balltrack.video.read_dataset` is read into one frames
    buffer, reused for every sequence, so memory stays flat over a long split.
    Returns the per-sequence metrics, :func:`evaluate`'s ``{metric: (N,)
    array}`` in ``METRICS`` order, and the predictions stacked in sequence
    order, ``{scale: {"B", "H", "P", "V": (N, T-2, 3, 2), "bounce": (N, T-2,
    3)}}``, the arrays :func:`write_predictions` writes.
    """
    tracked, truths = [], []
    if isinstance(sequences, _Split):  # no sequence read into the buffer leaves this loop
        split, frames = sequences, np.empty(sequences.shape, sequences.dtype)
        sequences = (split._load(i, frames) for i in split.indices)
    for seq in sequences:
        tracked.append(track_sequence(seq, cfg, temporal_mean))
        truths.append(seq.trajectory)
    if not tracked:
        raise ValueError("no sequences to track")
    predictions = {s: {key: np.stack([p[s][key] for p in tracked]) for key in arrays}
                   for s, arrays in tracked[0].items()}
    return evaluate(predictions, Trajectory.stack(truths)), predictions


def metrics_to_csv(per_sequence: dict[str, np.ndarray], config_label: str, replicate: int) -> str:
    """Render each metric's mean over the sequences of :func:`track_split`'s
    per-sequence metrics as ``config,replicate,metric,value`` rows."""
    return _CSV_HEADER + "\n" + "".join(
        f"{config_label},{replicate},{metric},{float(v.mean()):.17g}\n" for metric, v in per_sequence.items())


def per_sequence_to_csv(per_sequence: dict[str, np.ndarray]) -> str:
    """Render :func:`track_split`'s per-sequence metrics as a ``sequence``
    column plus one column per metric, one row per sequence in sequence order."""
    rows = zip(*per_sequence.values())
    return ",".join(("sequence", *per_sequence)) + "\n" + "".join(
        f"{i}," + ",".join(f"{v:.17g}" for v in row) + "\n" for i, row in enumerate(rows))


def write_predictions(path, predictions: dict[int, dict[str, np.ndarray]]) -> None:
    """Write :func:`track_split`'s window arrays to ``path`` in the tensor
    record format of the dataset files: for each scale of ``SCALES``, one
    record per estimate of ``ESTIMATES``, in that table's order and type."""
    with open(path, "wb") as fh:
        for s in SCALES:
            for name, dtype in ESTIMATES.items():
                _write_record(fh, predictions[s][name], dtype)


def metrics_columns_from_csv(text: str) -> tuple[list[str], list[int], list[str], np.ndarray]:
    """Parse rows written by :func:`metrics_to_csv` (or compatible files) into
    columns: configs, replicates and metrics as lists and values as one
    float64 array, in file order.

    Blank lines are skipped and whitespace around each field is ignored;
    ``ValueError`` names the line of a malformed row or of a value that is
    not finite, or says that the file has no data rows.  A clean file is
    parsed by column, with no strip when it holds no padding, one ``int``
    per distinct replicate and one ``float`` per value; the rows are walked
    one by one only to name the first bad line.
    """
    # strip drops the whitespace that splitlines leaves inside a line: in
    # ASCII that is only space, tab and \x1f, so a text without them needs none
    padded = not text.isascii() or any(map(text.__contains__, " \t\x1f"))
    lines = list(filter(None, map(str.strip, text.splitlines()) if padded else text.splitlines()))
    body = lines[1:]
    if (body and ",".join(map(str.strip, lines[0].split(","))).lower() == _CSV_HEADER
            and set(map(str.count, body, repeat(","))) == {3}):  # four fields on every row
        fields = ",".join(body).split(",")
        if padded:
            fields = list(map(str.strip, fields))
        reps = fields[1::4]
        try:
            rep_of = {r: int(r) for r in set(reps)}
            values = np.fromiter(map(float, fields[3::4]), float, len(body))
        except ValueError:
            raise _first_bad_line(text) from None
        if np.isfinite(values).all():
            return fields[0::4], list(map(rep_of.__getitem__, reps)), fields[2::4], values
    raise _first_bad_line(text)


def metrics_from_csv(text: str) -> list[tuple[str, int, str, float]]:
    """The ``(config, replicate, metric, value)`` rows of
    :func:`metrics_columns_from_csv`, which raises as it does."""
    configs, replicates, metrics, values = metrics_columns_from_csv(text)
    return list(zip(configs, replicates, metrics, values.tolist()))


def _first_bad_line(text: str) -> ValueError:
    """The error for the first line of ``text`` that :func:`metrics_columns_from_csv` rejects."""
    lines = [(i, [f.strip() for f in ln.split(",")])
             for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or ",".join(lines[0][1]).lower() != _CSV_HEADER:
        first = lines[0][0] if lines else 1
        return ValueError(f"line {first}: results CSV must start with '{_CSV_HEADER}'")
    if len(lines) == 1:
        return ValueError("no data rows")
    for i, fields in lines[1:]:
        if len(fields) != 4:
            return ValueError(f"line {i}: expected 4 fields ({_CSV_HEADER}), found {len(fields)}")
        try:
            int(fields[1])
            if not np.isfinite(float(fields[3])):
                return ValueError(f"line {i}: value {fields[3]!r} is not finite")
        except ValueError as err:
            return ValueError(f"line {i}: {err}")

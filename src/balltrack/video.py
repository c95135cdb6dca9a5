"""Frame rendering, static-noise backgrounds, and dataset persistence.

A sequence is a stack of frames: a filled circle (intensity 1) drawn over a
zero background plus one static Gaussian noise image shared by every frame
of that sequence.  Frames are float32 and left unclamped; clamping to a
display range is a presentation concern, not a data one.

On disk a dataset is one directory per noise level:

    meta.json            all simulation parameters + format version
    <split>_frames.bin   one tensor record, float32 (N, T, H, W)
    <split>_truth.bin    three records: positions f64 (N,T,2),
                         velocities f64 (N,T,2), bounce flags u8 (N,T)

A tensor record is ``b"PITD"``, u32 version, u32 ndims, ndims x u64 shape,
then the row-major little-endian payload.  Element type is fixed by the
record's position in the file, listed above.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .rng import RandomStream
from .sim import SimConfig, SimulationError, Trajectory, simulate_trajectory

__all__ = [
    "VideoSequence",
    "DatasetError",
    "FormatVersionError",
    "TruncatedFileError",
    "ShapeMismatchError",
    "render_frame",
    "make_noise_image",
    "generate_sequence",
    "generate_split",
    "write_dataset",
    "read_dataset",
    "read_manifest",
    "SPLITS",
]

MAGIC = b"PITD"
FORMAT_VERSION = 1
SPLITS = ("train", "val", "test")


class DatasetError(Exception):
    """Base class for dataset persistence failures."""


class FormatVersionError(DatasetError):
    pass


class TruncatedFileError(DatasetError):
    pass


class ShapeMismatchError(DatasetError):
    pass


@dataclass
class VideoSequence:
    """Rendered frames (T, H, W) float32 plus the generating ground truth."""

    frames: np.ndarray
    trajectory: Trajectory
    noise_image: np.ndarray | None = None


def render_frame(center_px, cfg: SimConfig) -> np.ndarray:
    """Binary ball frame: pixel (i, j) is 1 iff (j-x)^2 + (i-y)^2 <= r^2.

    The threshold is evaluated at integer pixel centers with a sub-pixel
    circle center; no anti-aliasing.
    """
    h = w = cfg.image_size
    x, y = float(center_px[0]), float(center_px[1])
    r = cfg.radius_px
    frame = np.zeros((h, w), dtype=np.float32)
    # only the bounding box of the disk needs testing
    i0, i1 = max(0, int(np.floor(y - r))), min(h - 1, int(np.ceil(y + r)))
    j0, j1 = max(0, int(np.floor(x - r))), min(w - 1, int(np.ceil(x + r)))
    ii = np.arange(i0, i1 + 1, dtype=np.float64)[:, None]
    jj = np.arange(j0, j1 + 1, dtype=np.float64)[None, :]
    inside = (jj - x) ** 2 + (ii - y) ** 2 <= r * r
    frame[i0 : i1 + 1, j0 : j1 + 1] = inside.astype(np.float32)
    return frame


def make_noise_image(cfg: SimConfig, rng: RandomStream) -> np.ndarray:
    """One (H, W) image of i.i.d. N(0, sigma^2) samples, float32."""
    h = w = cfg.image_size
    if cfg.noise_sigma == 0.0:
        return np.zeros((h, w), dtype=np.float32)
    samples = rng.normal(h * w, sigma=cfg.noise_sigma)
    return samples.reshape(h, w).astype(np.float32)


def generate_sequence(cfg: SimConfig, rng: RandomStream) -> VideoSequence:
    """Simulate one trajectory and render it over a static noise background."""
    trajectory = simulate_trajectory(cfg, rng.spawn("trajectory"))
    noise = make_noise_image(cfg, rng.spawn("noise"))
    frames = np.empty((cfg.frames_per_video, cfg.image_size, cfg.image_size), dtype=np.float32)
    for t in range(cfg.frames_per_video):
        frames[t] = render_frame(trajectory.positions_px[t], cfg) + noise
    return VideoSequence(frames=frames, trajectory=trajectory, noise_image=noise)


def split_stream(cfg: SimConfig, split: str, index: int) -> RandomStream:
    """Stream owned by one (split, sequence) cell; disjoint across splits."""
    return RandomStream.from_seed(cfg.seed, "dataset", split, index)


def generate_split(cfg: SimConfig, split: str, n: int | None = None) -> list[VideoSequence]:
    if n is None:
        n = {"train": cfg.n_train, "val": cfg.n_val, "test": cfg.n_test}[split]
    return [generate_sequence(cfg, split_stream(cfg, split, i)) for i in range(n)]


# ---- binary tensor records ----------------------------------------------


def _write_record(fh, array: np.ndarray, dtype: str) -> None:
    data = array.astype(dtype, order="C")  # keeps 0-d shapes, unlike ascontiguousarray
    fh.write(MAGIC)
    fh.write(struct.pack("<II", FORMAT_VERSION, data.ndim))
    fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
    fh.write(data.tobytes())


def _bytes_left(fh) -> int:
    here = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(here)
    return end - here


def _read_record(fh, dtype: str, path) -> np.ndarray:
    """Inverse of :func:`_write_record`; header sizes are checked against the
    bytes left in ``fh`` before anything is allocated."""
    head = fh.read(12)
    if len(head) < 12:
        raise TruncatedFileError(f"{path}: truncated record header")
    if head[:4] != MAGIC:
        raise FormatVersionError(f"{path}: bad magic {head[:4]!r}")
    version, ndim = struct.unpack("<II", head[4:12])
    if version != FORMAT_VERSION:
        raise FormatVersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    if 8 * ndim > _bytes_left(fh):
        raise TruncatedFileError(f"{path}: truncated shape header")
    shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize  # Python ints: no wrap-around
    if nbytes > _bytes_left(fh):
        raise TruncatedFileError(f"{path}: truncated payload")
    try:
        return np.frombuffer(fh.read(nbytes), dtype=dtype).reshape(shape).copy()
    except ValueError as err:  # numpy's limits on rank and extent
        raise ShapeMismatchError(f"{path}: unsupported record shape {shape}") from err


def write_dataset(path, split: str, sequences: list[VideoSequence], cfg: SimConfig) -> None:
    """Persist one split; the manifest is (re)written with every call.

    An empty split is rejected before the directory is touched, and an
    existing manifest is checked before any split file is opened, so a
    rejected write leaves the directory as it was.  The split files and the
    manifest are written under temporary names in the same directory and
    then renamed over the old ones, so a write that fails part-way leaves
    the previous files whole and no temporary file behind.
    """
    if not sequences:
        raise DatasetError(f"{path}: no sequences to write for split {split!r}")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    config = asdict(cfg)
    manifest = {}
    if (path / "meta.json").exists():
        manifest = read_manifest(path)
        if manifest.get("config") != config:
            raise DatasetError(
                f"{path}: directory already holds a dataset with a different "
                "configuration; splits of one dataset must share it"
            )

    frames = np.stack([seq.frames for seq in sequences])
    positions = np.stack([seq.trajectory.positions_px for seq in sequences])
    velocities = np.stack([seq.trajectory.velocities_fu for seq in sequences])
    bounces = np.stack([seq.trajectory.bounce_flags for seq in sequences])
    manifest["format_version"] = FORMAT_VERSION
    manifest["config"] = config
    manifest.setdefault("splits", {})[split] = len(sequences)

    staged = {name: path / f".{name}.tmp"
              for name in (f"{split}_frames.bin", f"{split}_truth.bin", "meta.json")}
    try:
        with open(staged[f"{split}_frames.bin"], "wb") as fh:
            _write_record(fh, frames, "<f4")
        with open(staged[f"{split}_truth.bin"], "wb") as fh:
            _write_record(fh, positions, "<f8")
            _write_record(fh, velocities, "<f8")
            _write_record(fh, bounces.astype(np.uint8), "<u1")
        staged["meta.json"].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        for name, tmp in staged.items():
            os.replace(tmp, path / name)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)


def read_manifest(path) -> dict:
    manifest_path = Path(path) / "meta.json"
    if not manifest_path.exists():
        raise DatasetError(f"{manifest_path}: no manifest found")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatVersionError(f"{manifest_path}: incompatible manifest version")
    return manifest


def read_dataset(path, split: str) -> tuple[list[VideoSequence], SimConfig]:
    """Load one split; inverse of :func:`write_dataset` (noise not stored).

    A manifest configuration that :class:`SimConfig` rejects, or a split
    whose files are absent, raises :class:`DatasetError`; the latter names
    the splits the manifest lists.
    """
    path = Path(path)
    manifest = read_manifest(path)
    try:
        cfg = SimConfig(**manifest["config"])
    except (TypeError, SimulationError) as err:  # unknown fields, or values the simulator rejects
        raise DatasetError(f"{path}: the manifest holds an invalid configuration: {err}") from err

    frames_path, truth_path = path / f"{split}_frames.bin", path / f"{split}_truth.bin"
    missing = [p.name for p in (frames_path, truth_path) if not p.is_file()]
    if missing:
        listed = ", ".join(manifest.get("splits", {})) or "none"
        raise DatasetError(f"{path}: no {split!r} split ({', '.join(missing)} missing); "
                           f"the manifest lists: {listed}")
    with open(frames_path, "rb") as fh:
        frames = _read_record(fh, "<f4", frames_path)
    with open(truth_path, "rb") as fh:
        positions = _read_record(fh, "<f8", truth_path)
        velocities = _read_record(fh, "<f8", truth_path)
        bounces = _read_record(fh, "<u1", truth_path)

    n = manifest["splits"].get(split)
    if n is not None and frames.shape[0] != n:
        raise ShapeMismatchError(f"{path}: manifest lists {n} sequences, file has {frames.shape[0]}")
    if frames.ndim != 4 or positions.shape[-1] != 2 or velocities.shape[-1] != 2:
        raise ShapeMismatchError(f"{path}: unexpected record ranks in dataset files")
    if not (frames.shape[0] == positions.shape[0] == velocities.shape[0] == bounces.shape[0]):
        raise ShapeMismatchError(f"{path}: frames/truth sequence counts differ")
    if not (frames.shape[1] == positions.shape[1] == velocities.shape[1] == bounces.shape[1]):
        raise ShapeMismatchError(f"{path}: frames/truth frame counts differ")
    if frames.shape[2:] != (cfg.image_size, cfg.image_size):
        raise ShapeMismatchError(f"{path}: frame shape {frames.shape[2:]} != config image size")

    sequences = []
    for i in range(frames.shape[0]):
        traj = Trajectory(
            positions_px=positions[i],
            velocities_fu=velocities[i],
            bounce_flags=bounces[i].astype(bool),
        )
        sequences.append(VideoSequence(frames=frames[i], trajectory=traj))
    return sequences, cfg

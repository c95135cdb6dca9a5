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
record's position in the file, listed above and in ``_FILES``, the one table
that :func:`write_dataset` and :func:`read_dataset` loop over.  A split is
valid when its records have the shapes listed above (T = frames_per_video,
H = W = image_size from the config, N >= 1) and its bounce flags are 0 or
1: both check these rules, :func:`_record_shapes` and :func:`_binary_flags`.
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
    "TrailingBytesError",
    "render_frame",
    "make_noise_image",
    "generate_sequence",
    "generate_split",
    "write_dataset",
    "read_dataset",
    "read_manifest",
    "existing_manifest",
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


class TrailingBytesError(DatasetError):
    """Bytes follow the last record of a file."""


@dataclass
class VideoSequence:
    """Rendered frames (T, H, W) float32 plus the generating ground truth."""

    frames: np.ndarray
    trajectory: Trajectory
    noise_image: np.ndarray | None = None


def _disk(center, radius: float, size: int, dtype) -> np.ndarray:
    """(size, size) image: pixel (i, j) is 1 iff (j-x)^2 + (i-y)^2 <= r^2 for the
    sub-pixel center (x, y), else 0.  Only the disk's bounding box is tested."""
    x, y = float(center[0]), float(center[1])
    image = np.zeros((size, size), dtype=dtype)
    # [start, stop) of the box inside the image per axis; a stop below 0 would wrap round
    (i0, i1), (j0, j1) = ((max(0, int(np.floor(c - radius))),
                           max(0, min(size, int(np.ceil(c + radius)) + 1))) for c in (y, x))
    ii = np.arange(i0, i1, dtype=np.float64)[:, None]
    jj = np.arange(j0, j1, dtype=np.float64)[None, :]
    image[i0:i1, j0:j1] = (jj - x) ** 2 + (ii - y) ** 2 <= radius * radius
    return image


def render_frame(center_px, cfg: SimConfig) -> np.ndarray:
    """Binary float32 ball frame of ``cfg``'s size and radius, centered at
    ``center_px`` (see :func:`_disk`); no anti-aliasing."""
    return _disk(center_px, cfg.radius_px, cfg.image_size, np.float32)


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


def _check_split(split: str, error: type[Exception] = DatasetError) -> None:
    """Reject a split name outside ``SPLITS``; the name is part of the split's
    file names, so any other one could name files outside the dataset."""
    if split not in SPLITS:
        raise error(f"unknown split {split!r}; the splits are {', '.join(SPLITS)}")


def generate_split(cfg: SimConfig, split: str) -> list[VideoSequence]:
    """The sequences of one split of ``SPLITS``; another name raises ``ValueError``."""
    _check_split(split, ValueError)
    n = {"train": cfg.n_train, "val": cfg.n_val, "test": cfg.n_test}[split]
    return [generate_sequence(cfg, split_stream(cfg, split, i)) for i in range(n)]


# ---- binary tensor records ----------------------------------------------

# the records of a split, per file in file order: name (the sequence's
# frames, then its trajectory's fields) and element type
_FILES = (("frames", (("frames", "<f4"),)),
          ("truth", (("positions_px", "<f8"), ("velocities_fu", "<f8"), ("bounce_flags", "<u1"))))


def _record_shapes(cfg: SimConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each of one sequence's records under ``cfg``, by name, in file order."""
    t = cfg.frames_per_video
    return {"frames": (t, cfg.image_size, cfg.image_size), "positions_px": (t, 2),
            "velocities_fu": (t, 2), "bounce_flags": (t,)}


def _binary_flags(flags) -> bool:
    return bool(np.isin(flags, (0, 1)).all())


def _records(seq: VideoSequence) -> dict:
    """One sequence's records by name (see ``_FILES``)."""
    return {"frames": seq.frames, **vars(seq.trajectory)}


def _split_paths(path: Path, split: str) -> dict[str, Path]:
    return {file: path / f"{split}_{file}.bin" for file, _ in _FILES}


def _write_header(fh, shape) -> None:
    fh.write(MAGIC + struct.pack(f"<II{len(shape)}Q", FORMAT_VERSION, len(shape), *shape))


def _write_payload(fh, array, dtype: str) -> None:  # no copy when the array already fits
    fh.write(np.asarray(array, dtype=dtype, order="C").reshape(-1).view(np.uint8))


def _write_record(fh, array: np.ndarray, dtype: str) -> None:
    _write_header(fh, np.shape(array))
    _write_payload(fh, array, dtype)


def _bytes_left(fh) -> int:
    here = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(here)
    return end - here


def _read_record(fh, dtype: str, path) -> np.ndarray:
    """Inverse of :func:`_write_record`; header sizes are checked against the
    bytes left in ``fh`` before anything is allocated, and the payload is
    read straight into the returned array."""
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
        array = np.empty(shape, dtype=dtype)
    except ValueError as err:  # numpy's limits on rank and extent
        raise ShapeMismatchError(f"{path}: unsupported record shape {shape}") from err
    if fh.readinto(array.reshape(-1).view(np.uint8)) != nbytes:
        raise TruncatedFileError(f"{path}: truncated payload")
    return array


def _check_at_end(fh, path) -> None:
    extra = _bytes_left(fh)
    if extra:
        raise TrailingBytesError(f"{path}: {extra} bytes after the last record")


def write_dataset(path, split: str, sequences: list[VideoSequence], cfg: SimConfig) -> list[Path]:
    """Persist one split and return the paths written, the split's files then
    the manifest; the manifest is (re)written with every call.

    A split name outside ``SPLITS``, an empty split, or one with a sequence
    whose records are not the shapes :func:`_record_shapes` gives for ``cfg``
    or whose bounce flags are not all 0 or 1, is rejected before the
    directory is touched, and so is a directory whose manifest holds another
    configuration (:func:`existing_manifest`), so a rejected write leaves the
    directory as it was.  The split files and the manifest are written under
    temporary names in the same directory and then renamed over the old
    ones, so a write that fails part-way leaves the previous files whole and
    no temporary file behind.
    """
    _check_split(split)
    if not sequences:
        raise DatasetError(f"{path}: no sequences to write for split {split!r}")
    want = _record_shapes(cfg)
    for i, seq in enumerate(sequences):
        shapes = tuple(np.shape(array) for array in _records(seq).values())
        if shapes != tuple(want.values()):
            raise ShapeMismatchError(f"{path}: sequence {i} of split {split!r} has records of shapes "
                                     f"{shapes}, but the config's are {tuple(want.values())}")
        if not _binary_flags(seq.trajectory.bounce_flags):
            raise DatasetError(f"{path}: sequence {i} of split {split!r} has bounce flags other than 0 and 1")
    path = Path(path)
    manifest = existing_manifest(path, cfg)
    path.mkdir(parents=True, exist_ok=True)

    manifest["format_version"] = FORMAT_VERSION
    manifest["config"] = asdict(cfg)
    manifest.setdefault("splits", {})[split] = len(sequences)

    targets = {**_split_paths(path, split), "meta": path / "meta.json"}
    staged = {key: target.with_name(f".{target.name}.tmp") for key, target in targets.items()}
    try:
        for file, records in _FILES:
            with open(staged[file], "wb") as fh:
                for name, dtype in records:
                    _write_header(fh, (len(sequences), *want[name]))
                    for seq in sequences:  # one sequence at a time: the split is never stacked
                        _write_payload(fh, _records(seq)[name], dtype)
        staged["meta"].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        for key, tmp in staged.items():
            os.replace(tmp, targets[key])
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
    return list(targets.values())


def existing_manifest(path, cfg: SimConfig) -> dict:
    """The manifest a split of ``cfg`` may be added to in ``path``: the one
    there, or ``{}`` if there is none.  A manifest of another configuration
    raises :class:`DatasetError`, since the splits of one dataset share it.
    Nothing is created."""
    if not (Path(path) / "meta.json").exists():
        return {}
    manifest = read_manifest(path)
    if manifest.get("config") != asdict(cfg):
        raise DatasetError(f"{path}: directory already holds a dataset with a different "
                           "configuration; splits of one dataset must share it")
    return manifest


def read_manifest(path) -> dict:
    manifest_path = Path(path) / "meta.json"
    if not manifest_path.exists():
        raise DatasetError(f"{manifest_path}: no manifest found")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as err:  # undecodable bytes or malformed JSON
        raise DatasetError(f"{manifest_path}: the manifest is not valid JSON: {err}") from err
    if not isinstance(manifest, dict):
        raise DatasetError(f"{manifest_path}: the manifest is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatVersionError(f"{manifest_path}: incompatible manifest version")
    if not isinstance(manifest.get("config"), dict):
        raise DatasetError(f"{manifest_path}: the manifest holds no configuration object")
    if not isinstance(manifest.get("splits", {}), dict):
        raise DatasetError(f"{manifest_path}: the manifest's splits are not an object")
    return manifest


def read_dataset(path, split: str) -> tuple[list[VideoSequence], SimConfig]:
    """Load one split; inverse of :func:`write_dataset` (noise not stored).

    A split name outside ``SPLITS``, a manifest configuration that
    :class:`SimConfig` rejects, or a split whose files are absent raises
    :class:`DatasetError`; the last names the splits the manifest lists.
    Bytes after a file's last record raise :class:`TrailingBytesError`.
    Records that are not the shapes
    :func:`write_dataset` accepts, each with a leading N, raise
    :class:`ShapeMismatchError`, where N is the frames header's sequence
    count, at least 1 and the manifest's count if it lists one.  Bounce
    flags other than 0 and 1 raise :class:`DatasetError`.
    """
    _check_split(split)
    path = Path(path)
    manifest = read_manifest(path)
    try:
        cfg = SimConfig(**manifest["config"])
    except (TypeError, SimulationError) as err:  # unknown fields, or values the simulator rejects
        raise DatasetError(f"{path}: the manifest holds an invalid configuration: {err}") from err

    paths = _split_paths(path, split)
    missing = [p.name for p in paths.values() if not p.is_file()]
    if missing:
        listed = ", ".join(manifest.get("splits", {})) or "none"
        raise DatasetError(f"{path}: no {split!r} split ({', '.join(missing)} missing); "
                           f"the manifest lists: {listed}")
    arrays = {}
    for file, records in _FILES:
        with open(paths[file], "rb") as fh:
            for name, dtype in records:
                arrays[name] = _read_record(fh, dtype, paths[file])
            _check_at_end(fh, paths[file])

    frames = arrays.pop("frames")
    n = frames.shape[0] if frames.ndim else 0
    n_listed = manifest.get("splits", {}).get(split)
    shapes = (frames.shape, *(record.shape for record in arrays.values()))
    want = tuple((n, *shape) for shape in _record_shapes(cfg).values())
    if shapes != want or n < 1 or n_listed not in (None, n):
        raise ShapeMismatchError(f"{path}: split {split!r} has records of shapes {shapes}; under the "
                                 f"config, {n} sequences (the frames header's count, which must be at "
                                 f"least 1 and match the manifest's {n_listed}) give {want}")
    if not _binary_flags(arrays["bounce_flags"]):
        raise DatasetError(f"{paths['truth']}: bounce flags other than 0 and 1")
    arrays["bounce_flags"] = arrays["bounce_flags"].astype(bool)
    return [VideoSequence(frames=frames[i], trajectory=Trajectory(**{k: v[i] for k, v in arrays.items()}))
            for i in range(n)], cfg

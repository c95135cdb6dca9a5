"""Frame rendering, static-noise backgrounds, and dataset persistence.

A sequence is a stack of frames: a filled circle (intensity 1) drawn over a
zero background plus one static Gaussian noise image shared by every frame
of that sequence.  :func:`generate_sequence` makes the stack in one pass: it
copies ``0 + noise`` into every frame (a -0.0 noise pixel becomes 0.0) and
sets every frame's disk pixels, from the one disk test :func:`_disk_pixels`,
to ``1 + noise`` in one scatter.  Frames are float32 and left unclamped;
clamping to a display range is a presentation concern, not a data one.

On disk a dataset is one directory per noise level:

    meta.json            all simulation parameters + format version
    <split>_frames.bin   one tensor record, float32 (N, T, H, W)
    <split>_truth.bin    three records: positions f64 (N,T,2), velocities
                         f64 (N,T,2) in px/frame, bounce flags u8 (N,T)

A tensor record is ``b"PITD"``, u32 version, u32 ndims, ndims x u64 shape,
then the row-major little-endian payload.  Element type is fixed by the
record's position in the file, listed above and in ``_FILES``, the one table
that :func:`staged_dataset` and :func:`read_dataset` loop over.  A split is
valid when its records have the shapes listed above (T = frames_per_video,
H = W = image_size from the config, N >= 1) and its bounce flags are 0 or
1: both check these rules, :func:`_record_shapes` and :func:`_binary_flags`.

Both kinds of split are lazy, read-only sequences of :class:`VideoSequence`
that share one indexing class, ``_LazySplit``, and hold no frames.  Each
access to a split of :func:`generate_split` renders that sequence from its
own stream.  Each access to a split of :func:`read_dataset` reads that
sequence's frames from the file anew, after checking that the file is still
the one it checked; :func:`read_dataset` runs every check on both files
before it returns (headers, exact payload sizes, record shapes, bounce
flags) without reading a frame.  :func:`staged_dataset` writes any splits
of one directory, making one pass over each: it takes each sequence once,
checks it as it arrives, streams its frames to a staged file and keeps its
trajectory for the truth file, their ``Trajectory.stack``;
:func:`write_dataset` is it with one split.  Every output lands through
:func:`staged`, under the directory's lock, its manifest (``meta.json``
here) last, so a rejected or failed write leaves the filesystem as it was
and no manifest names a mixed set.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
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
    "staged_dataset",
    "staged",
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


def _disk_pixels(centers, radius: float, size: int) -> tuple[np.ndarray, ...]:
    """Index arrays, into a ``(..., size, size)`` stack, of the pixels (i, j) in
    the image with (j-x)^2 + (i-y)^2 <= r^2 for each sub-pixel center (x, y) of
    ``centers`` (..., 2); the leading arrays pick the center.  Each center tests
    one k x k box from floor(c - r), k = ceil(2r) + 2, which holds its disk.  A
    NaN or infinite center has no disk and raises ``ValueError`` naming it."""
    centers = np.asarray(centers, dtype=np.float64)
    if not np.isfinite(centers).all():
        flat = centers.reshape(-1, 2)
        bad = flat[~np.isfinite(flat).all(axis=1)][0]
        raise ValueError(f"disk center {tuple(bad.tolist())} is not finite")
    x, y = centers[..., 0, None, None], centers[..., 1, None, None]
    k = np.arange(math.ceil(2 * radius) + 2)
    jj, ii = np.floor(x - radius) + k, np.floor(y - radius) + k[:, None]  # (..., 1, k), (..., k, 1)
    inside = (((jj - x) ** 2 + (ii - y) ** 2 <= radius * radius)
              & (0 <= jj) & (jj < size) & (0 <= ii) & (ii < size))
    idx = np.nonzero(inside)
    return (*idx[:-2], *(np.broadcast_to(a, inside.shape)[idx].astype(np.intp) for a in (ii, jj)))


def _disk(center, radius: float, size: int, dtype) -> np.ndarray:
    """(size, size) image: 1 at the pixels :func:`_disk_pixels` gives for the
    sub-pixel center (x, y), else 0."""
    image = np.zeros((size, size), dtype=dtype)
    image[_disk_pixels(center, radius, size)] = 1
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
    """Simulate one trajectory and render it over a static noise background.

    Frame t is ``render_frame(positions_px[t], cfg) + noise`` bit for bit, made in
    one pass: the one image ``0 + noise``, the sum off the disk (a -0.0 noise
    pixel becomes 0.0), is copied into every frame, then all disk pixels get
    ``1 + noise`` at once."""
    trajectory = simulate_trajectory(cfg, rng.spawn("trajectory"))
    noise = make_noise_image(cfg, rng.spawn("noise"))
    frames = np.empty((cfg.frames_per_video, cfg.image_size, cfg.image_size), dtype=np.float32)
    frames[:] = noise + np.float32(0)
    t, i, j = _disk_pixels(trajectory.positions_px, cfg.radius_px, cfg.image_size)
    frames[t, i, j] = np.float32(1) + noise[i, j]
    return VideoSequence(frames=frames, trajectory=trajectory, noise_image=noise)


def split_stream(cfg: SimConfig, split: str, index: int) -> RandomStream:
    """Stream owned by one (split, sequence) cell; disjoint across splits."""
    return RandomStream.from_seed(cfg.seed, "dataset", split, index)


def _check_split(split: str, error: type[Exception] = DatasetError) -> None:
    """Reject a split name outside ``SPLITS``; the name is part of the split's
    file names, so any other one could name files outside the dataset."""
    if split not in SPLITS:
        raise error(f"unknown split {split!r}; the splits are {', '.join(SPLITS)}")


@dataclass(frozen=True)
class _LazySplit(Sequence):
    """A read-only split that makes sequence i on each access, with no cache.

    Takes ints, numpy ints and negative indices (through ``indices``, a
    ``range``, so an index out of range raises ``IndexError``) and slices,
    which give a split of the same kind; items cannot be assigned.  A
    subclass supplies :meth:`_load`."""

    indices: range

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return replace(self, indices=self.indices[index])
        return self._load(self.indices[index])

    def _load(self, i: int) -> VideoSequence:
        raise NotImplementedError


@dataclass(frozen=True)
class _GeneratedSplit(_LazySplit):
    """The split :func:`generate_split` returns: each access renders its sequence."""

    cfg: SimConfig
    split: str

    def _load(self, i: int) -> VideoSequence:
        return generate_sequence(self.cfg, split_stream(self.cfg, self.split, i))


def generate_split(cfg: SimConfig, split: str) -> Sequence[VideoSequence]:
    """The sequences of one split of ``SPLITS``; another name raises ``ValueError``.

    The split is read-only and lazy: nothing is rendered here, and each
    access renders sequence i anew from its own stream
    (:func:`split_stream`), so an access gives the same bits in any order
    and the split holds no frames between accesses.  A configuration the
    simulator cannot resolve raises on the access that meets it.
    """
    _check_split(split, ValueError)
    n = {"train": cfg.n_train, "val": cfg.n_val, "test": cfg.n_test}[split]
    return _GeneratedSplit(range(n), cfg, split)


# ---- binary tensor records ----------------------------------------------

# the records of a split, per file in file order: name (the sequence's
# frames, then its trajectory's fields) and element type
_FILES = (("frames", (("frames", "<f4"),)),
          ("truth", (("positions_px", "<f8"), ("velocities_fu", "<f8"), ("bounce_flags", "<u1"))))


def _record_shapes(cfg: SimConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each of one sequence's records under ``cfg``, by name, in the file order of ``_FILES``."""
    t, size = cfg.frames_per_video, cfg.image_size
    shapes = {"frames": (t, size, size), "positions_px": (t, 2), "velocities_fu": (t, 2), "bounce_flags": (t,)}
    return {name: shapes[name] for _, records in _FILES for name, _ in records}


def _binary_flags(flags) -> bool:
    flags = np.asarray(flags)
    return bool(((flags == 0) | (flags == 1)).all())


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


def _read_header(fh, dtype: str, path) -> tuple[tuple[int, ...], int]:
    """Parse the header of a record of :func:`_write_record` and return the
    record's shape and payload size, both checked against the bytes left in
    ``fh``; the payload is not read."""
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
    return shape, nbytes


def _read_payload(fh, array: np.ndarray, path) -> np.ndarray:
    """Fill ``array`` with the next ``array.nbytes`` bytes of ``fh``."""
    if fh.readinto(array.reshape(-1).view(np.uint8)) != array.nbytes:
        raise TruncatedFileError(f"{path}: truncated payload")
    return array


def _read_record(fh, dtype: str, path) -> np.ndarray:
    """Inverse of :func:`_write_record`; nothing is allocated before
    :func:`_read_header` has checked the sizes, and the payload is read
    straight into the returned array."""
    shape, _ = _read_header(fh, dtype, path)
    try:
        array = np.empty(shape, dtype=dtype)
    except ValueError as err:  # numpy's limits on rank and extent
        raise ShapeMismatchError(f"{path}: unsupported record shape {shape}") from err
    return _read_payload(fh, array, path)


def _check_at_end(fh, path) -> None:
    extra = _bytes_left(fh)
    if extra:
        raise TrailingBytesError(f"{path}: {extra} bytes after the last record")


@contextlib.contextmanager
def staged(directory, names: Sequence[str]):
    """Make ``directory``, lock it and yield a temporary path ``.<name>.tmp``
    in it for each of ``names``; when the block ends, remove the old file of
    the last name (the manifest), rename each temporary file over its name in
    order and unlock.  So a manifest only ever names a complete set: a run
    stopped between two renames leaves none.  The lock is a file made with
    ``O_EXCL`` that holds this PID; a held lock raises :class:`DatasetError`
    naming its PID, so ``staged`` cannot be nested on one directory.  If the
    PID write, the block or a rename raises, the temporary files, the lock and
    each directory this call made are removed (``os.rmdir``, deepest first)."""
    directory = Path(directory)
    created = [d for d in (directory, *directory.parents) if not d.exists()]  # deepest first
    lock, tmps = directory / ".balltrack.lock", [directory / f".{name}.tmp" for name in names]
    owned = []  # the lock and the temporary files, once the lock is this call's
    try:
        directory.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                owner = lock.read_text().strip() or "unknown"
            except OSError:
                owner = "unknown"
            raise DatasetError(f"output directory is locked by {lock} (pid {owner}); "
                               "remove the file if no other run is active") from None
        owned = [*tmps, lock]
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        yield tmps
        (directory / names[-1]).unlink(missing_ok=True)
        for name, tmp in zip(names, tmps):
            os.replace(tmp, directory / name)
    except BaseException:
        for path in owned:
            path.unlink(missing_ok=True)
        for made in created:
            with contextlib.suppress(OSError):  # not empty: a file was put there meanwhile
                os.rmdir(made)
        raise
    lock.unlink()


def write_dataset(path, split: str, sequences: Sequence[VideoSequence], cfg: SimConfig) -> list[Path]:
    """Persist one split through :func:`staged_dataset`; return the paths it yields."""
    with staged_dataset(path, {split: sequences}, cfg) as paths:
        return paths


@contextlib.contextmanager
def staged_dataset(path, splits: dict[str, Sequence[VideoSequence]], cfg: SimConfig):
    """Write each split of ``splits``, ``{split: sequences}``, and the merged
    manifest under one :func:`staged` call and yield their paths, the manifest
    last.  They land when the block ends; a block that raises lands nothing.

    ``sequences`` is any sequence of :class:`VideoSequence`, a list or a
    lazy split of :func:`generate_split` or :func:`read_dataset`.  The
    write is one pass: the record headers take the count from
    ``len(sequences)``, each sequence is accessed exactly once, checked as
    it arrives and its frames streamed to the frames file; the truth file is
    written after the frames, from the kept trajectories' ``Trajectory.stack``.
    Both the checks and the files take their records by name, in ``_FILES`` order.

    A split name outside ``SPLITS``, an empty split, or a directory whose
    manifest holds another configuration (:func:`existing_manifest`) is
    rejected before the directory is touched.  A sequence whose records are
    not the shapes :func:`_record_shapes` gives for ``cfg``, or whose bounce
    flags are not all 0 or 1, raises :class:`ShapeMismatchError` or
    :class:`DatasetError` when it arrives.  The split files and the manifest
    land through :func:`staged`, ``meta.json`` last, only after every
    sequence is written, under the directory's lock: a directory another
    writer holds raises :class:`DatasetError`.  So a rejected write, or one
    that fails part-way (a sequence that cannot be generated, a full disk),
    leaves the filesystem as it was: the previous files whole, no temporary
    file, no lock, and none of the directories this call created.  A rename
    that fails part-way leaves no ``meta.json``, so the directory does not
    load as a dataset.
    """
    for split, sequences in splits.items():
        _check_split(split)
        if not len(sequences):
            raise DatasetError(f"{path}: no sequences to write for split {split!r}")
    want = _record_shapes(cfg)
    path = Path(path)
    manifest = existing_manifest(path, cfg)
    manifest.update(format_version=FORMAT_VERSION, config=asdict(cfg))
    manifest.setdefault("splits", {}).update({split: len(sequences) for split, sequences in splits.items()})

    dtypes = {name: dtype for _, records in _FILES for name, dtype in records}
    names = [p.name for split in splits for p in _split_paths(path, split).values()] + ["meta.json"]
    with staged(path, names) as tmps:
        for (split, sequences), frames_tmp, truth_tmp in zip(splits.items(), tmps[::2], tmps[1::2]):
            trajectories = []  # small: kept for the second file
            with open(frames_tmp, "wb") as fh:
                _write_header(fh, (len(sequences), *want["frames"]))
                for i in range(len(sequences)):
                    seq = sequences[i]
                    shapes = tuple(np.shape(seq.frames if name == "frames" else getattr(seq.trajectory, name))
                                   for name in want)
                    if shapes != tuple(want.values()):
                        raise ShapeMismatchError(f"{path}: sequence {i} of split {split!r} has records of "
                                                 f"shapes {shapes}, but the config's are {tuple(want.values())}")
                    if not _binary_flags(seq.trajectory.bounce_flags):
                        raise DatasetError(f"{path}: sequence {i} of split {split!r} has bounce flags "
                                           "other than 0 and 1")
                    _write_payload(fh, seq.frames, dtypes["frames"])
                    trajectories.append(seq.trajectory)
                    del seq  # else it holds this sequence's frames while the next one is made
            truth = Trajectory.stack(trajectories)
            with open(truth_tmp, "wb") as fh:
                for name, dtype in dict(_FILES)["truth"]:
                    _write_record(fh, getattr(truth, name), dtype)
        tmps[-1].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        yield [path / name for name in names]


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
    version = manifest.get("format_version")  # true == 1 == 1.0, but neither is this format's version
    if isinstance(version, bool) or not isinstance(version, int) or version != FORMAT_VERSION:
        raise FormatVersionError(f"{manifest_path}: incompatible manifest version")
    if not isinstance(manifest.get("config"), dict):
        raise DatasetError(f"{manifest_path}: the manifest holds no configuration object")
    if not isinstance(manifest.get("splits", {}), dict):
        raise DatasetError(f"{manifest_path}: the manifest's splits are not an object")
    return manifest


def _stamp(fh) -> tuple[int, int, int, int]:
    """What identifies an open file's contents: device, inode, size and
    modification time."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


@dataclass(frozen=True)
class _Split(_LazySplit):
    """The split :func:`read_dataset` checked: each access reads its sequence.

    The truth is one :class:`Trajectory` of read-only ``(N, T, ...)`` arrays;
    each access hands out ``truth[i]``, views of them, opens the frames file,
    checks that its :func:`_stamp` is still the one taken when the split was
    read, and reads that sequence's ``(T, H, W)`` slice of the payload into a
    fresh array.  Only :func:`~balltrack.tracker.track_split` passes
    :meth:`_load` a buffer of its own to read into instead.
    """

    path: Path
    stamp: tuple[int, int, int, int]
    offset: int  # of the frames payload in the file
    shape: tuple[int, ...]  # of one sequence's frames
    dtype: str  # of the frames
    truth: Trajectory

    def _load(self, i: int, frames: np.ndarray | None = None) -> VideoSequence:
        if frames is None:
            frames = np.empty(self.shape, dtype=self.dtype)
        try:
            fh = open(self.path, "rb")
        except OSError as err:
            raise DatasetError(f"{self.path}: cannot reopen the frames: {err.strerror}") from err
        with fh:
            if _stamp(fh) != self.stamp:
                raise DatasetError(f"{self.path}: the file changed after its split was read")
            fh.seek(self.offset + i * frames.nbytes)
            _read_payload(fh, frames, self.path)
        return VideoSequence(frames=frames, trajectory=self.truth[i])


def read_dataset(path, split: str) -> tuple[Sequence[VideoSequence], SimConfig]:
    """Check one split and return its sequences; inverse of
    :func:`write_dataset` (noise not stored).

    Every check runs before this returns, and none reads a frame: a split
    name outside ``SPLITS``, a manifest configuration that
    :class:`SimConfig` rejects (an image size, frame count, split size or
    seed that is not an integer among them), or a split whose files are
    absent raises :class:`DatasetError`; the last names the splits the
    manifest lists.  A record header that declares more bytes than its
    file holds raises :class:`TruncatedFileError`, and bytes after a file's
    last record raise :class:`TrailingBytesError`.  Records that are not the shapes
    :func:`write_dataset` accepts, each with a leading N, raise
    :class:`ShapeMismatchError`, where N is the frames header's sequence
    count, at least 1 and the manifest's count if it lists one; a listed
    count that is not an integer, a bool and a string among them, raises
    :class:`DatasetError`.  Bounce flags other than 0 and 1 raise it too.

    The truth records are read here; the frames are not.  The sequences
    come back as a read-only sequence whose every access reads that
    sequence's frames from the file anew, so iterating holds one sequence's
    frames at a time.  An access after the frames file changed (another
    device, inode, size or modification time) raises :class:`DatasetError`.
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
    shapes, truth = {}, {}
    for file, records in _FILES:
        with open(paths[file], "rb") as fh:
            for name, dtype in records:
                if name == "frames":  # header only: each access reads its own sequence
                    stamp, frames_dtype = _stamp(fh), dtype
                    shapes[name], nbytes = _read_header(fh, dtype, paths[file])
                    offset = fh.tell()
                    fh.seek(nbytes, io.SEEK_CUR)
                else:
                    truth[name] = _read_record(fh, dtype, paths[file])
                    shapes[name] = truth[name].shape
            _check_at_end(fh, paths[file])

    shapes = tuple(shapes.values())
    n = shapes[0][0] if shapes[0] else 0
    n_listed = manifest.get("splits", {}).get(split)
    if isinstance(n_listed, bool) or not isinstance(n_listed, (int, type(None))):  # true == 1 and 1.0 == 1
        raise DatasetError(f"{path}: the manifest's {split!r} count {n_listed!r} is not an integer")
    want = tuple((n, *shape) for shape in _record_shapes(cfg).values())
    if shapes != want or n < 1 or n_listed not in (None, n):
        raise ShapeMismatchError(f"{path}: split {split!r} has records of shapes {shapes}; under the "
                                 f"config, {n} sequences (the frames header's count, which must be at "
                                 f"least 1 and match the manifest's {n_listed}) give {want}")
    if not _binary_flags(truth["bounce_flags"]):
        raise DatasetError(f"{paths['truth']}: bounce flags other than 0 and 1")
    truth["bounce_flags"] = truth["bounce_flags"].astype(bool)
    for array in truth.values():  # every access hands out views of them
        array.flags.writeable = False
    return _Split(range(n), paths["frames"], stamp, offset, want[0][1:], frames_dtype, Trajectory(**truth)), cfg

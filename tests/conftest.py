import json

import numpy as np
import pytest

from balltrack.sim import SimConfig
from balltrack.video import _write_record, generate_split, write_dataset


@pytest.fixture(scope="session")
def cfg():
    return SimConfig()


@pytest.fixture(scope="session")
def small_cfg():
    """Cheap configuration for IO / CLI style tests."""
    return SimConfig(frames_per_video=12, n_train=3, n_val=2, n_test=3)


@pytest.fixture
def rng_np():
    return np.random.default_rng(1234)


@pytest.fixture
def zero_sequence_split(tmp_path, small_cfg):
    """A dataset whose test split holds 0 sequences, written by hand, since
    :func:`write_dataset` refuses an empty split; ``meta.json`` lists 0."""
    path = tmp_path / "zero"
    write_dataset(path, "test", generate_split(small_cfg, "test"), small_cfg)
    t, size = small_cfg.frames_per_video, small_cfg.image_size
    with open(path / "test_frames.bin", "wb") as fh:
        _write_record(fh, np.zeros((0, t, size, size)), "<f4")
    with open(path / "test_truth.bin", "wb") as fh:
        for shape, dtype in (((0, t, 2), "<f8"), ((0, t, 2), "<f8"), ((0, t), "<u1")):
            _write_record(fh, np.zeros(shape), dtype)
    meta = json.loads((path / "meta.json").read_text())
    meta["splits"]["test"] = 0
    (path / "meta.json").write_text(json.dumps(meta))
    return path

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import balltrack.video
from balltrack.sim import SimConfig, SimulationError
from balltrack.video import _write_record, generate_split, read_dataset, split_stream, write_dataset


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


@pytest.fixture
def change_frames():
    """Change a split's frames file on disk: ``"truncate"`` cuts its last byte,
    ``"rewrite"`` writes the same split again with every pixel + 1 (a new
    file renamed into place, of the same size), ``"delete"`` removes it."""
    def change(path, how, split="test"):
        frames = Path(path) / f"{split}_frames.bin"
        if how == "truncate":
            frames.write_bytes(frames.read_bytes()[:-1])
        elif how == "rewrite":
            sequences, cfg = read_dataset(path, split)
            write_dataset(path, split, [replace(s, frames=s.frames + 1) for s in sequences], cfg)
        else:
            frames.unlink()
    return change


@pytest.fixture
def fail_generation(monkeypatch):
    """Make generating sequence ``index`` of ``split`` under ``cfg`` raise a
    ``SimulationError``, a fault part-way through a split."""
    def fail(cfg, split, index):
        real, bad = balltrack.video.generate_sequence, split_stream(cfg, split, index).key

        def generate(sequence_cfg, rng):
            if rng.key == bad:
                raise SimulationError("injected simulator fault")
            return real(sequence_cfg, rng)

        monkeypatch.setattr(balltrack.video, "generate_sequence", generate)
    return fail


@pytest.fixture(scope="session")
def peak_rss():
    """Run ``python -c code *args`` in a fresh process that imports this
    package and return its peak RSS (``ru_maxrss``) at exit.  A small launcher
    starts it: a process's ``ru_maxrss`` starts at its parent's peak when it
    forks, and the test process's peak is larger than most commands'."""
    src = str(Path(balltrack.video.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    launch = [sys.executable, "-c", "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"]

    def run(code, *args):
        code += "\nimport resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        done = subprocess.run([*launch, sys.executable, "-c", code, *map(str, args)], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        return int(done.stdout.split()[-1])
    return run

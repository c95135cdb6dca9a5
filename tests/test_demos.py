"""The demos run as scripts; an API change that breaks one fails here."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# 06_tracking.py tracks 24 full sequences; CI runs it against the installed
# package, after the console-script commands
FAST_DEMOS = ["01_simulate.py", "02_dataset.py", "03_landmarks.py",
              "04_physics_window.py", "05_losses.py", "07_factorial.py"]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()

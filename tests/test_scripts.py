"""The study scripts run to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import attainkit

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ("threshold_study.py", "--points", "11"),
    ("concentration_study.py",),
])
def test_study_script_exits_zero(argv):
    src = str(Path(attainkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

"""The demo scripts run to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import compset

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(compset.__file__).resolve().parent.parent)


@pytest.mark.parametrize("name", ["quickstart.py", "reuse_and_importance.py", "similarity_tour.py"])
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

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


def test_cli_walkthrough_exits_zero(tmp_path):
    # the script calls `compset`: a shim on PATH runs the package under test
    shim = tmp_path / "bin" / "compset"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m compset "$@"\n')
    shim.chmod(0o755)
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(shim.parent), os.environ.get("PATH", "")]),
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        ["bash", str(ROOT / "demos" / "cli_walkthrough.sh"), str(tmp_path / "work")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr

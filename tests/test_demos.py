"""Every demo script runs to the end in a fresh interpreter: exit 0 and
nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import incalg

SRC = Path(incalg.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""

"""The demo scripts run to completion against the current API."""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import plaqgate

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


# pulse_shaping.py runs a full pulse optimization (about 20 s) and is left out
@pytest.mark.parametrize("script", ["echoed_gate.py", "orbital_phases.py", "plaquette_levels.py"])
def test_demo_exits_cleanly(script):
    src = str(pathlib.Path(plaqgate.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, script], cwd=DEMOS, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""The demo scripts run to completion against the current API."""
from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import plaqgate

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


# every demo, the slow one included: an API change must not break one silently
@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports_resolve(script):
    tree = ast.parse((DEMOS / script).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "plaqgate"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{node.module} has no {missing}"


# pulse_shaping.py runs a full pulse optimization (about 20 s) and is left out
@pytest.mark.parametrize("script", ["echoed_gate.py", "orbital_phases.py", "plaquette_levels.py"])
def test_demo_exits_cleanly(script):
    src = str(pathlib.Path(plaqgate.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, script], cwd=DEMOS, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

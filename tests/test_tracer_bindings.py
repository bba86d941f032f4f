"""The benchmark's call tracer (perfbench/tracer.py) still finds and wraps
every kitealg name it traces.

The tracer wraps functions and methods by name, so deleting or renaming one
of them makes Tracer.install() raise. This test reads perfbench/ and changes
nothing there.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CODE = """
import kitealg.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
print(tracer.unpatched())
"""


def test_tracer_installs_and_leaves_no_binding_unwrapped():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", CODE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

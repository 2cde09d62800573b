"""Import-graph guard: the package's entry points load without scipy.optimize."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_entry_points_do_not_import_scipy_optimize():
    code = ("import sys, gaussmink, gaussmink.cli, gaussmink.serialize; "
            "print('scipy.optimize' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"

"""Every script under ``scripts/`` runs from a checkout: it puts the ``src/``
directory next to it on ``sys.path`` itself, so ``--help`` works without
``PYTHONPATH``."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "scripts", "*.py")))


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_help_runs_without_pythonpath(script):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.join("scripts", script), "--help"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("usage: ")

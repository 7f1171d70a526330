"""scripts/explore_example.py runs end to end and verifies the r=2
identity."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_explore_example_verifies_the_identity():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "explore_example.py")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.rstrip().endswith("identity verified")

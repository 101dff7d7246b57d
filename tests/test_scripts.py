"""Smoke runs of the experiment scripts, so they keep up with the library API."""

import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_malliavin_experiment_runs():
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = os.path.join(_ROOT, "scripts", "malliavin_experiment.py")
    done = subprocess.run(
        [sys.executable, script, "--samples", "200", "--steps", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "max |z|" in done.stdout

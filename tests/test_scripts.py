"""Smoke runs of the experiment scripts, so they keep up with the library API."""

import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _run(script, *args):
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, os.path.join(_ROOT, "scripts", script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_malliavin_experiment_runs():
    done = _run("malliavin_experiment.py", "--samples", "200", "--steps", "4")
    assert done.returncode == 0, done.stderr
    assert "max |z|" in done.stdout


def test_convergence_experiment_runs():
    done = _run("convergence_experiment.py", "--samples", "2000", "--levels", "2", "4", "8")
    assert done.returncode == 0, done.stderr
    assert "fitted slope" in done.stdout

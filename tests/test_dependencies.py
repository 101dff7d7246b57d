"""The package needs numpy only: the CLI checks a config's shape itself and
leaves every value to the library's constructors, and the inverse normal CDF
is a port of Cephes' ndtri, not scipy's."""

import os
import re
import subprocess
import sys

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_cli_imports_neither_scipy_nor_a_schema_validator_and_pyproject_lists_only_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(_ROOT, "src"), env.get("PYTHONPATH")]))
    probe = (
        "import sys, bspde.cli; "
        "print(sorted({name.partition('.')[0] for name in sys.modules} & {'jsonschema', 'scipy'}))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(_ROOT, "pyproject.toml"), "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in dependencies] == ["numpy"]

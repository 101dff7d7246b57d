"""Every binding the benchmark tracer wraps resolves, so a rename in
bspde that would break the traced benchmark fails here."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
_spec = importlib.util.spec_from_file_location("tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

BINDINGS = [
    (name, owner, attr) for name, bindings in tracer.BINDINGS.items() for owner, attr in bindings
]


@pytest.mark.parametrize("name,owner_path,attr", BINDINGS, ids=[f"{o}.{a}" for _, o, a in BINDINGS])
def test_binding_resolves(name, owner_path, attr):
    owner = tracer._resolve_owner(owner_path)
    held = owner if isinstance(owner, dict) else vars(owner)
    assert attr in held, f"{name}: {owner_path} has no {attr}"

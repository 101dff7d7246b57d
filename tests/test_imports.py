"""Every name a module of the package imports is read in that module, so an
import that a refactor left behind fails here.  The package's `__init__`
imports to re-export and is not checked; `from __future__` imports bind
nothing.  The only exceptions are the names the benchmark tracer wraps on a
module that no longer calls them: they stay importable there until the
benchmark drops its binding.  The check reads the source with `ast` only."""

import ast
import importlib.util
import os

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_SRC = os.path.join(_ROOT, "src", "bspde")

_spec = importlib.util.spec_from_file_location("tracer", os.path.join(_ROOT, "perfbench", "tracer.py"))
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# imported but not called, kept only because perfbench/tracer.py wraps them there
TRACER_ONLY = {"bspde.cli.build_malliavin_lattices", "bspde.analysis.simulate_increments"}


def _unread_imports(path: str) -> set[str]:
    """The names that the module at path imports and never reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_import_is_read_or_wrapped_by_the_tracer():
    unread = {
        f"bspde.{name[:-3]}.{unread}"
        for name in sorted(os.listdir(_SRC))
        if name.endswith(".py") and name != "__init__.py"
        for unread in _unread_imports(os.path.join(_SRC, name))
    }
    traced = {f"{owner}.{attr}" for bindings in tracer.BINDINGS.values() for owner, attr in bindings}
    assert unread == TRACER_ONLY
    assert TRACER_ONLY <= traced


def test_the_check_sees_an_unread_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
        "def f(x: np.ndarray):\n    return pi * x\n"
    )
    assert _unread_imports(str(module)) == {"os", "tau"}

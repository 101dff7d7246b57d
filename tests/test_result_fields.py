"""Every field of the package's other dataclasses (results, reports, systems
and records) is read somewhere in the repository: in the package, its tests,
its scripts or its benchmark.  A read inside ``__post_init__`` does not count.
The four configuration classes are held to the stricter rule of
tests/test_dataclass_fields.py, a reader inside the package."""

import ast

from test_dataclass_fields import CLASSES, PACKAGE, _attribute_reads

ROOT = PACKAGE.parents[1]
READERS = ("src", "tests", "scripts", "perfbench")


def _dataclasses(tree) -> dict[str, list[str]]:
    return {
        node.name: [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
    }


def test_every_result_field_has_a_reader():
    fields = {}
    for path in sorted(PACKAGE.glob("*.py")):
        fields.update(_dataclasses(ast.parse(path.read_text())))
    others = {name: names for name, names in fields.items() if name not in CLASSES}
    assert len(others) >= 8, sorted(others)  # the scan finds the result classes
    sources = [path for top in READERS for path in sorted((ROOT / top).rglob("*.py"))]
    reads = set().union(*(_attribute_reads(ast.parse(path.read_text())) for path in sources))
    unread = [f"{name}.{f}" for name, names in others.items() for f in names if f not in reads]
    assert unread == [], f"dataclass fields that nothing in the repository reads: {unread}"

"""Every field of the package's configuration dataclasses is read somewhere in
the package.  A field that only its constructor and its own validation touch
carries nothing, so a read inside ``__post_init__`` does not count."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "bspde"
CLASSES = ("ProblemSpec", "SolverConfig", "EstimatorSpec", "Partition")


def _attribute_reads(node) -> set[str]:
    if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
        return set()
    reads = {node.attr} if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) else set()
    for child in ast.iter_child_nodes(node):
        reads |= _attribute_reads(child)
    return reads


def test_every_config_field_is_read_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    fields = {
        node.name: [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in CLASSES
    }
    assert sorted(fields) == sorted(CLASSES)
    reads = set().union(*(_attribute_reads(tree) for tree in trees))
    unread = [f"{name}.{f}" for name, names in fields.items() for f in names if f not in reads]
    assert unread == [], f"dataclass fields that nothing in the package reads: {unread}"

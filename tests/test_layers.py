"""The package's modules import one another in one direction only."""

import ast
from pathlib import Path

import signorini

LAYERS = ["mesh", "fem", "problems", "vi", "density", "estimator", "adaptive", "cli"]


def package_imports(name):
    """The sibling modules a module names in its ``from . import`` and
    ``from .x import`` lines."""
    tree = ast.parse((Path(signorini.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_modules_import_only_earlier_layers():
    for rank, name in enumerate(LAYERS):
        later = package_imports(name) - set(LAYERS[:rank])
        assert not later, f"{name} imports {sorted(later)}, not earlier than it in {LAYERS}"

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


# the console script's entry point; nothing in the package calls it
ENTRY_POINTS = {"cli.main"}


def test_every_top_level_definition_is_used_in_the_package():
    """A top-level function or class that the package names nowhere but at
    its definition is code that only tests call."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(signorini.__file__).parent.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [(f"{module}.{node.name}", node.name)
               for module, tree in sorted(trees.items()) if module != "__init__"
               for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [full for full, name in defined if name not in used and full not in ENTRY_POINTS]
    assert not unused, f"defined but never used in the package: {unused}"

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


# the contact record defines the normal frame; the solver also reads its
# sign, to set the displacement at the active nodes to the gap
READS_THE_NORMAL_SIGN = {"density", "vi"}


def test_only_the_contact_record_and_the_solver_read_the_normal_sign():
    """Every other module takes normal parts from the record's
    ``normal_part``.  A read is an attribute load named ``sign``, matched
    by name alone."""
    readers = {path.stem for path in Path(signorini.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "sign"
               and isinstance(node.ctx, ast.Load)}
    extra = readers - READS_THE_NORMAL_SIGN
    assert not extra, f"modules that read the contact normal's sign: {sorted(extra)}"


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


# the console script calls ``main()`` with no argument, to parse sys.argv
SET_OUTSIDE_THE_PACKAGE = {"cli.main(argv)"}


def defaulted_parameters(tree, module):
    """(label, function name, parameter, position) of every defaulted
    parameter of the module's top-level functions and methods.  ``position``
    counts from the first argument that a call passes, after self or cls;
    it is None for a keyword-only parameter."""
    found = []
    scopes = [(None, tree)] + [(n.name, n) for n in tree.body if isinstance(n, ast.ClassDef)]
    for cls, scope in scopes:
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            label = f"{module}.{cls + '.' if cls else ''}{fn.name}"
            bound = cls is not None   # the package has no static methods
            positional = fn.args.posonlyargs + fn.args.args
            for i in range(len(positional) - len(fn.args.defaults), len(positional)):
                found.append((label, fn.name, positional[i].arg, i - bound))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found.append((label, fn.name, arg.arg, None))
    return found


def test_every_defaulted_parameter_is_set_by_a_call_in_the_package():
    """A default that no call in the package overrides is a constant that
    reads like a setting, one more configuration that nothing runs.  Calls
    match by the called name alone: any call of that name that passes the
    parameter, by keyword or by position, sets it."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(signorini.__file__).parent.glob("*.py")}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call, param, position):
        if any(kw.arg in (param, None) for kw in call.keywords):   # None: **mapping
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return position is not None and len(call.args) > position

    unset = [f"{label}({param})"
             for module, tree in sorted(trees.items())
             for label, name, param, position in defaulted_parameters(tree, module)
             if not any(sets(call, param, position) for call in calls.get(name, []))]
    unset = [item for item in unset if item not in SET_OUTSIDE_THE_PACKAGE]
    assert not unset, f"defaulted parameters that no call in the package sets: {unset}"


# dataclasses whose readers all sit outside the package: the benchmark gate
# and the acceptance suite read the per-level checks
READ_OUTSIDE_CLASSES = {"adaptive.LevelChecks"}
READ_OUTSIDE_FIELDS = {
    "adaptive.LevelRecord.checks",            # the benchmark worker dumps them per level
    "vi.VISolution.iterations",               # the benchmark tracer sums them
}


def dataclass_members(tree, module):
    """(label, name) of every field and property of the module's
    dataclasses; a field is an annotated name in the class body."""
    found = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if not any(getattr(d, "id", None) == "dataclass" for d in decorators):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            elif isinstance(node, ast.FunctionDef) and any(
                    getattr(d, "id", None) in ("property", "cached_property")
                    for d in node.decorator_list):
                name = node.name
            else:
                continue
            found.append((f"{module}.{cls.name}.{name}", name))
    return found


def test_every_dataclass_field_is_read_in_the_package():
    """A field or property of a package dataclass that the package never
    reads is a value computed or stored for nothing.  A read is an attribute
    load of that name anywhere in the package; the match is by name alone,
    so a field that shares its name with another attribute the package reads
    is not caught."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(signorini.__file__).parent.glob("*.py")}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [label for module, tree in sorted(trees.items())
              for label, name in dataclass_members(tree, module)
              if name not in loaded and label not in READ_OUTSIDE_FIELDS
              and label.rsplit(".", 1)[0] not in READ_OUTSIDE_CLASSES]
    assert not unread, f"dataclass fields that the package never reads: {unread}"

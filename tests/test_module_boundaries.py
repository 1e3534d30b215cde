"""The modules of springerbij share no private names, only Family is a dataclass, and the
modules are layers that the package root does not re-export."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "springerbij"


def _imports_from_the_package(node):
    return isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("springerbij"))


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_a_private_name_from_another():
    # a private name imported across modules is an interface nobody declared:
    # make it public in the module that owns it, or keep it where it is used
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if _imports_from_the_package(node):
                found += [f"{name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_module_reads_a_private_name_of_another():
    # the same rule for `from . import families` followed by `families._name`
    found = []
    for name, tree in _trees():
        siblings = {alias.asname or alias.name for node in ast.walk(tree)
                    if _imports_from_the_package(node) and node.module in (None, "springerbij")
                    for alias in node.names}
        found += [f"{name}:{node.lineno}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and node.attr.startswith("_")
                  and not node.attr.startswith("__")]
    assert found == []


def _names_a_dataclass(node):
    name = (node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name)
            else node.name if isinstance(node, ast.alias) else None)
    return name in ("dataclass", "make_dataclass")


def test_family_is_the_only_dataclass():
    # each dataclass generates its methods with exec at import, about 1 ms of every CLI
    # start per decoration; the value records are permcore.Record named tuples instead.
    # Family stays a dataclass because perfbench/tracer.py rebuilds it with dataclasses.replace.
    found = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
             if _names_a_dataclass(node)]
    family = next(node for node in ast.parse((SRC / "families.py").read_text()).body
                  if isinstance(node, ast.ClassDef) and node.name == "Family")
    assert found == [f"families.py:{family.decorator_list[0].lineno}"]


TESTS = Path(__file__).resolve().parent


def _bound_names(node):
    """The names a module-level statement binds: a def or class, or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unused_private_names(paths):
    """(file, line, name) of each module-level private function or table in paths that no
    statement but its own definition names, in any of the files."""
    statements = [(path.name, node) for path in paths
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    reads = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
             | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)} for _, node in statements]
    return [(name, node.lineno, bound) for i, (name, node) in enumerate(statements)
            for bound in _bound_names(node) if bound.startswith("_") and not bound.startswith("__")
            and not any(bound in names for j, names in enumerate(reads) if j != i)]


def test_no_test_module_keeps_an_unused_private_function_or_table():
    # a reference, helper or table that no test reads any more is dead weight: a retired
    # oracle must go with the last comparison that ran it
    assert _unused_private_names(sorted(TESTS.glob("*.py"))) == []


def test_no_library_module_keeps_an_unused_private_function_or_table():
    # the same rule for src/: a helper that a removal leaves behind goes with it
    assert _unused_private_names(sorted(SRC.glob("*.py"))) == []


# the layers in import order; importing one loads it and the layers before it only
LAYERS = {
    "permcore": {"permcore"},
    "paths": {"errors", "permcore", "paths"},
    "families": {"errors", "permcore", "paths", "families"},
    "bijections": {"errors", "permcore", "paths", "families", "bijections"},
    "verify": {"errors", "permcore", "paths", "families", "bijections", "verify"},
    "cli": {"errors", "permcore", "paths", "families", "bijections", "verify", "cli"},
}


def test_importing_a_layer_loads_only_the_layers_below_it():
    # one fresh interpreter per layer, on this tree's src whatever else is installed
    code = ("import importlib, sys\n"
            f"sys.path.insert(0, {str(SRC.parent)!r})\n"
            "importlib.import_module('springerbij.' + sys.argv[1])\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('springerbij'))))")
    for layer, below in LAYERS.items():
        done = subprocess.run([sys.executable, "-c", code, layer], capture_output=True, text=True, check=True)
        assert done.stdout.split() == sorted({"springerbij"} | {f"springerbij.{m}" for m in below}), layer


def test_the_package_root_re_exports_nothing():
    # the modules are the one import path: the root binds no function, class or import,
    # and every `from springerbij import X` outside src/ names a module
    root = ast.parse((SRC / "__init__.py").read_text())
    assert [type(node).__name__ for node in ast.walk(root) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))] == []
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    found = []
    for folder in ("tests", "tools", "perfbench"):
        for path in sorted((TESTS.parent / folder).glob("*.py")):
            found += [f"{folder}/{path.name}:{node.lineno}: {alias.name}"
                      for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                      if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "springerbij"
                      for alias in node.names if alias.name not in modules]
    assert found == []

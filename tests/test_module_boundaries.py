"""The modules of springerbij share no private names."""

import ast
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

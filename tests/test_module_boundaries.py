"""The modules of springerbij share no private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "springerbij"


def _imports_from_the_package(node):
    return isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("springerbij"))


def test_no_module_imports_a_private_name_from_another():
    # a private name imported across modules is an interface nobody declared:
    # make it public in the module that owns it, or keep it where it is used
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if _imports_from_the_package(node):
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []

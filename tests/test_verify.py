"""The verify registry cannot pass vacuously: no assert, and wrong maps fail rows."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import springerbij
from springerbij import bijections, paths, verify
from springerbij.families import ThreeWIP

SRC = Path(springerbij.__file__).resolve().parent


def test_verify_has_no_assert_statement():
    # python -O strips assert, which would make every row pass
    tree = ast.parse((SRC / "verify.py").read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_faulty_bijection_fails_under_optimize_flag():
    code = (
        "from springerbij import bijections, verify\n"
        "good = bijections.psi_inverse\n"
        "bijections.psi_inverse = lambda perm: good(perm)[::-1]\n"
        "for r in verify.run(3):\n"
        "    print(r.name, 'PASS' if r.passed else 'FAIL', r.detail)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-O", "-c", code],
                            capture_output=True, text=True, env=env, check=True)
    rows = {line.split()[0]: line for line in result.stdout.splitlines()}
    assert rows["bijections/psi-roundtrip"].split()[1] == "FAIL"
    # the detail names the first counterexample in canonical text
    assert "Counterexample: snakes '1 -2'" in rows["bijections/psi-roundtrip"]


def _reversed(obj):
    if isinstance(obj, ThreeWIP):
        return ThreeWIP(obj.sigma[::-1], obj.pi[::-1])
    if isinstance(obj, tuple):
        return obj[::-1]
    return type(obj)(obj.steps[::-1], obj.weights[::-1])


FAULTS = {"identity": lambda good: lambda obj: obj,
          "reversal": lambda good: lambda obj: _reversed(good(obj))}
MAPS = [(bijections, name) for name in (
    "phi", "phi_inverse", "psi", "psi_inverse", "fz", "fz_inverse",
    "rcalt_to_lbp", "lbp_to_rcalt", "snake_to_lbp", "lbp_to_snake")] + [(paths, "wbar")]


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("module, name", MAPS, ids=[name for _, name in MAPS])
def test_wrong_map_fails_a_row(monkeypatch, module, name, fault):
    monkeypatch.setattr(module, name, FAULTS[fault](getattr(module, name)))
    failed = [r.name for r in verify.run(3) if not r.passed]
    assert failed, f"{name} with a {fault} fault passes every row"

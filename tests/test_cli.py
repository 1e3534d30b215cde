"""End-to-end tests of the command-line surface."""

import io
import subprocess
import sys

import pytest

from springerbij import bijections, families, paths, permcore, verify
from springerbij.bijections import BIJECTIONS
from springerbij.cli import main

SNAKES_3_LINES = [
    "1 -2 3",
    "1 -3 -2",
    "1 -3 2",
    "2 -1 3",
    "2 -3 -1",
    "2 -3 1",
    "2 1 3",
    "3 -1 2",
    "3 -2 -1",
    "3 -2 1",
    "3 1 2",
]


def run_cli(argv, stdin_text=""):
    stdin = io.StringIO(stdin_text)
    stdout = io.StringIO()
    stderr = io.StringIO()
    code = main(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


# --- count --------------------------------------------------------------------

def test_count_oracle_default():
    code, out, _ = run_cli(["count", "--family", "snakes", "--n", "3"])
    assert code == 0 and out == "11\n"
    code, out, _ = run_cli(["count", "--family", "lbp", "--n", "0"])
    assert code == 0 and out == "1\n"


def test_count_enumerate_method():
    code, out, _ = run_cli(["count", "--family", "wip3", "--n", "5", "--method", "enumerate"])
    assert code == 0 and out == "361\n"
    code, out, _ = run_cli(["count", "--family", "laguerre", "--n", "4", "--method", "enumerate"])
    assert code == 0 and out == "24\n"
    code, out, _ = run_cli(["count", "--family", "laguerre", "--n", "4", "--method", "oracle"])
    assert code == 0 and out == "24\n"


def test_count_oracle_and_enumerate_agree():
    for family in ("snakes", "wip3", "rcalt", "lbp", "laguerre", "altperm"):
        for n in range(5):
            _, by_oracle, _ = run_cli(["count", "--family", family, "--n", str(n)])
            _, by_enum, _ = run_cli(
                ["count", "--family", family, "--n", str(n), "--method", "enumerate"]
            )
            assert by_oracle == by_enum, (family, n)


def test_count_negative_n_is_usage_error():
    code, out, err = run_cli(["count", "--family", "snakes", "--n", "-1"])
    assert code == 2 and out == "" and "n must be >= 0" in err


# --- enumerate ------------------------------------------------------------------

def test_enumerate_snakes_3_canonical_order():
    code, out, _ = run_cli(["enumerate", "--family", "snakes", "--n", "3"])
    assert code == 0
    assert out.splitlines() == SNAKES_3_LINES


def test_enumerate_lbp_1():
    code, out, _ = run_cli(["enumerate", "--family", "lbp", "--n", "1"])
    assert code == 0 and out == "U;0\n"


def test_enumerate_rcalt_2():
    code, out, _ = run_cli(["enumerate", "--family", "rcalt", "--n", "2"])
    assert code == 0
    assert out.splitlines() == ["2 1 4 3", "3 1 4 2", "4 2 3 1"]


def test_enumerate_n0_emits_one_empty_object():
    code, out, _ = run_cli(["enumerate", "--family", "snakes", "--n", "0"])
    assert code == 0 and out == "\n"
    code, out, _ = run_cli(["enumerate", "--family", "lbp", "--n", "0"])
    assert code == 0 and out == ";\n"


def test_enumerate_line_count_matches_count():
    for family in ("snakes", "wip3", "rcalt", "lbp", "laguerre", "altperm"):
        for n in range(4):
            _, lines, _ = run_cli(["enumerate", "--family", family, "--n", str(n)])
            _, count, _ = run_cli(["count", "--family", family, "--n", str(n)])
            assert len(lines.splitlines()) == int(count)


# --- map --------------------------------------------------------------------------

def test_map_phi():
    code, out, _ = run_cli(
        ["map", "--bijection", "phi"],
        "1 5 2 6 7 3 8 9 4 / 2 5 6 3 1 7 8 4 9\n",
    )
    assert code == 0 and out == "5 -7 -1 -2 6 3 8 -9 -4\n"


def test_map_phi_trace():
    code, out, err = run_cli(
        ["map", "--bijection", "phi", "--trace"],
        "1 5 2 6 7 3 8 9 4 / 2 5 6 3 1 7 8 4 9\n",
    )
    assert code == 0 and out == "5 -7 -1 -2 6 3 8 -9 -4\n"
    assert "trace 1 tau: 2 6 7^ 9^ 5 3 1 8 4" in err
    assert "trace 1 tautilde: 5 7^ 1 2 6 3 8 9^ 4" in err
    assert "^" not in out


def test_map_snake2lbp():
    code, out, _ = run_cli(["map", "--bijection", "snake2lbp"], "2 -1 5 4 7 -6 -3\n")
    assert code == 0 and out == "UUUDDUU;0,0,1,2,0,0,0\n"


def test_map_fz_inverse():
    code, out, _ = run_cli(
        ["map", "--bijection", "fz", "--inverse"],
        "UHTDUUHDD;0,1,0,0,0,0,2,1,0\n",
    )
    assert code == 0 and out == "4 3 1 2 9 6 8 5 7\n"


def test_map_wbar_is_its_own_inverse():
    text = "UUUDDUU;0,0,1,2,0,0,0\n"
    _, once, _ = run_cli(["map", "--bijection", "wbar"], text)
    assert once == "UUUDDUU;0,1,1,0,1,1,2\n"
    _, twice, _ = run_cli(["map", "--bijection", "wbar", "--inverse"], once)
    assert twice == text


def test_map_bad_line_continues_and_exits_1():
    code, out, err = run_cli(
        ["map", "--bijection", "psi"],
        "2 1\nnot a snake\n1 -2\n",
    )
    assert code == 1
    assert out == "2 1 4 3\n4 2 3 1\n"
    assert err.startswith("ERROR 2:")


def test_map_empty_line_is_the_empty_object():
    code, out, _ = run_cli(["map", "--bijection", "psi"], "\n")
    assert code == 0 and out == "\n"


def test_map_roundtrip_byte_exact():
    _, stream, _ = run_cli(["enumerate", "--family", "snakes", "--n", "4"])
    _, mapped, _ = run_cli(["map", "--bijection", "snake2lbp"], stream)
    _, back, _ = run_cli(["map", "--bijection", "snake2lbp", "--inverse"], mapped)
    assert back == stream


@pytest.mark.parametrize("name", list(BIJECTIONS))
def test_map_is_a_bijection_at_cli_level(name):
    # the inverse maps each codomain stream onto the domain, and the map
    # brings it back byte for byte
    bij = BIJECTIONS[name]
    source = families.domain(bij.domain)
    for n in range(5):
        _, image, _ = run_cli(["enumerate", "--family", bij.codomain, "--n", str(n)])
        code, preimage, _ = run_cli(["map", "--bijection", name, "--inverse"], image)
        assert code == 0
        assert sorted(preimage.splitlines()) == sorted(map(source.render, source.generate(n)))
        code, back, _ = run_cli(["map", "--bijection", name], preimage)
        assert code == 0 and back == image


@pytest.mark.parametrize("argv, line", [
    (["--bijection", "fz"], "01 2"),
    (["--bijection", "fz"], "+1\t2"),
    (["--bijection", "fz"], "\u0663 1 2"),  # an Arabic-Indic digit three
    (["--bijection", "fz", "--inverse"], "UD;0, 0"),
    (["--bijection", "phi"], "1 2/2 1"),
    (["--bijection", "psi"], "2 1\r"),  # a CRLF line ending
])
def test_map_rejects_non_canonical_text(argv, line):
    code, out, err = run_cli(["map", *argv], line + "\n")
    assert code == 1 and out == ""
    assert err.startswith("ERROR 1: NotCanonical: ")


def test_map_looks_up_library_functions_at_call_time(monkeypatch):
    # perfbench/tracer.py rebinds module functions after springerbij.cli is
    # imported (it is, at the top of this file); a record that bound a
    # function object at import time would bypass the rebinding
    calls = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

    spy(bijections, "psi")
    spy(permcore, "parse_signed")
    spy(paths, "parse_labeled_ballot")
    assert run_cli(["map", "--bijection", "psi"], "1\n") == (0, "2 1\n", "")
    assert run_cli(["map", "--bijection", "wbar"], "U;0\n") == (0, "U;0\n", "")
    assert calls == ["parse_signed", "psi", "parse_labeled_ballot"]


# --- verify -------------------------------------------------------------------------

def test_verify_small():
    code, out, _ = run_cli(["verify", "--n-max", "2"])
    assert code == 0
    lines = out.splitlines()
    assert all(" PASS " in line or "properties passed" in line for line in lines)
    assert "counts=1,1,3" in out
    assert lines[-1].endswith("properties passed")


def test_verify_n0():
    code, out, _ = run_cli(["verify", "--n-max", "0"])
    assert code == 0 and "FAIL" not in out


def test_verify_table_aligns_mixed_bounds(monkeypatch):
    rows = [verify.PropertyResult("a/x", 8, True, 0.5),
            verify.PropertyResult("a/y", 12, True, 1.5, "counts=1"),
            verify.PropertyResult("a/z", 8, False, 0.1, "Counterexample: 1")]
    monkeypatch.setattr(verify, "run", lambda n_max: rows)
    code, out, _ = run_cli(["verify", "--n-max", "12"])
    assert code == 1
    lines = out.splitlines()[:-1]
    columns = {line.find("PASS") if "PASS" in line else line.find("FAIL") for line in lines}
    assert len(columns) == 1
    # whitespace-split readers find the status in the third field
    assert [line.split()[2] for line in lines] == ["PASS", "PASS", "FAIL"]


# --- springer -----------------------------------------------------------------------

def test_springer_output():
    code, out, _ = run_cli(["springer", "--n-max", "6"])
    assert code == 0
    assert out.splitlines() == ["1", "1", "3", "11", "57", "361", "2763"]
    code, out, _ = run_cli(["springer", "--n-max", "0"])
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(["springer", "--n-max", "7"])
    assert out.splitlines()[-1] == "24611"


def test_springer_negative_is_usage_error():
    code, _, err = run_cli(["springer", "--n-max", "-3"])
    assert code == 2 and "n-max" in err


# --- usage errors and the installed script -------------------------------------------

def test_unknown_family_exits_2():
    result = subprocess.run(
        [sys.executable, "-m", "springerbij.cli", "count", "--family", "nope", "--n", "1"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "invalid choice" in result.stderr


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "springerbij.cli", "springer", "--n-max", "3"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["1", "1", "3", "11"]


def test_missing_subcommand_exits_2():
    result = subprocess.run(
        [sys.executable, "-m", "springerbij.cli"], capture_output=True, text=True
    )
    assert result.returncode == 2

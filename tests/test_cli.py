"""End-to-end tests of the command-line surface."""

import collections
import dataclasses
import io
import subprocess
import sys

import pytest

from springerbij import bijections, cli, families, paths, permcore, verify
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


@pytest.mark.parametrize("chunk", [1, 2, 7, 1024])
def test_enumerate_chunks_write_the_rendered_objects(chunk):
    # a piece per search leaf, written through a byte buffer that flushes every chunk bytes,
    # so pieces cross its boundaries; and the one empty object of n = 0
    for family, fam in families.FAMILIES.items():
        for n in range(6):
            raw = io.BytesIO()
            stdout = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=chunk), encoding="ascii")
            code = main(["enumerate", "--family", family, "--n", str(n)], stdout=stdout)
            stdout.flush()
            want = "".join(fam.render(obj) + "\n" for obj in fam.generate(n))
            assert (code, raw.getvalue().decode("ascii")) == (0, want), (family, n)


CEILINGS = {"snakes": 11, "wip3": 11, "rcalt": 11, "lbp": 11, "laguerre": 12, "altperm": 14}


def test_enumeration_ceilings_are_the_last_n_with_at_most_a_billion_objects():
    assert {name: fam.ceiling for name, fam in families.FAMILIES.items()} == CEILINGS
    assert families.domain("perm").ceiling == 12
    for fam in [*families.FAMILIES.values(), families.domain("perm")]:
        assert fam.oracle(fam.ceiling) <= 10**9 < fam.oracle(fam.ceiling + 1)


def _refuse_to_run(n):
    raise AssertionError(f"enumeration at n = {n} started")


@pytest.mark.parametrize("family", sorted(CEILINGS))
@pytest.mark.parametrize("command", [["enumerate"], ["count", "--method", "enumerate"]],
                         ids=["enumerate", "count-enumerate"])
def test_enumeration_above_the_ceiling_is_a_usage_error(monkeypatch, family, command):
    # the generators and the text are replaced, so a missing check fails here instead of running
    fam = families.FAMILIES[family]
    monkeypatch.setitem(families.FAMILIES, family, dataclasses.replace(
        fam, enumerate=_refuse_to_run, generate=_refuse_to_run, text=_refuse_to_run))
    n = str(CEILINGS[family] + 1)
    code, out, err = run_cli([*command, "--family", family, "--n", n])
    assert code == 2 and out == ""
    assert err == f"n must be <= {CEILINGS[family]} to enumerate {family} (at most 10^9 objects)\n"
    # the oracle count is bounded by cli.ORACLE_N_MAX, not by the enumeration ceiling
    assert run_cli(["count", "--family", family, "--n", n]) == (0, f"{fam.oracle(int(n))}\n", "")


def _refuse_to_count(n):
    raise AssertionError(f"a count up to n = {n} started")


@pytest.mark.parametrize("family", sorted(CEILINGS))
def test_oracle_count_above_1000_is_a_usage_error(monkeypatch, family):
    # the oracle is replaced, so a missing check fails here instead of running
    fam = families.FAMILIES[family]
    monkeypatch.setitem(families.FAMILIES, family, dataclasses.replace(fam, oracle=_refuse_to_count))
    assert run_cli(["count", "--family", family, "--n", "1001"]) == (2, "", "n must be <= 1000\n")
    monkeypatch.setitem(families.FAMILIES, family, dataclasses.replace(fam, oracle=lambda n: -n))
    assert run_cli(["count", "--family", family, "--n", "1000"]) == (0, "-1000\n", "")


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


def test_map_phi_inverse_trace_runs_through_the_image():
    # the inverse line is traced through its 3-WIP, with the lines phi's trace prints
    code, out, err = run_cli(
        ["map", "--bijection", "phi", "--inverse", "--trace"],
        "5 -7 -1 -2 6 3 8 -9 -4\n",
    )
    assert code == 0 and out == "1 5 2 6 7 3 8 9 4 / 2 5 6 3 1 7 8 4 9\n"
    assert err == "trace 1 tau: 2 6 7^ 9^ 5 3 1 8 4\ntrace 1 tautilde: 5 7^ 1 2 6 3 8 9^ 4\n"


def test_map_phi_trace_repeats_steps_1_and_2_only(monkeypatch):
    # the traced object is a member once the map has run, so the trace neither
    # checks the 3-WIP again nor places bars: it re-runs phi_step1 for its lines
    calls = collections.Counter()

    def spy(name):
        real = getattr(bijections, name)
        monkeypatch.setattr(bijections, name, lambda *args: calls.update([name]) or real(*args))

    for name in ("validate_wip3", "place_bars", "phi_step1"):
        spy(name)
    wip, snake = "1 5 2 6 7 3 8 9 4 / 2 5 6 3 1 7 8 4 9\n", "5 -7 -1 -2 6 3 8 -9 -4\n"
    for argv, text, image in ((["--trace"], wip, snake), (["--inverse", "--trace"], snake, wip)):
        calls.clear()
        code, out, _ = run_cli(["map", "--bijection", "phi", *argv], text)
        assert (code, out) == (0, image)
        assert calls == {"validate_wip3": 1, "place_bars": 1, "phi_step1": 2}, argv


def test_map_snake2lbp():
    code, out, _ = run_cli(["map", "--bijection", "snake2lbp"], "2 -1 5 4 7 -6 -3\n")
    assert code == 0 and out == "UUUDDUU;0,0,1,2,0,0,0\n"


# (map arguments, input line, output line, the lengths of the words
# permcore.is_permutation checks, the step lengths of the paths paths._caps
# checks) for every mode. A line is read unchecked, so the map's own input
# check is the only one a good line meets; the domain's parse runs on a
# rejected line only.
SNAKE7, LBP7 = "2 -1 5 4 7 -6 -3\n", "UUUDDUU;0,0,1,2,0,0,0\n"
RCALT14 = "5 2 14 11 12 7 9 6 8 3 4 1 13 10\n"
PERM9, HISTORY9 = "4 3 1 2 9 6 8 5 7\n", "UHTDUUHDD;0,1,0,0,0,0,2,1,0\n"
WIP9, SNAKE9 = "1 5 2 6 7 3 8 9 4 / 2 5 6 3 1 7 8 4 9\n", "5 -7 -1 -2 6 3 8 -9 -4\n"
CHECKS = [
    # psi's input check (its image is a permutation as built), then
    # halve_rc_fixed's check of the history
    (["snake2lbp"], SNAKE7, LBP7, [7], [14]),
    # extend_to_rc_fixed's check of its input (its history is rc-fixed as
    # built), then psi_inverse's input check (its image is signed as built)
    (["snake2lbp", "--inverse"], LBP7, SNAKE7, [14], [7]),
    # rcalt_to_lbp's one input check (fz's stands in for it), halve_rc_fixed's
    (["bigpsi"], RCALT14, LBP7, [14], [14]),
    # extend_to_rc_fixed's one; lbp_to_rcalt checks no permutation, only fz's theorems
    (["bigpsi", "--inverse"], LBP7, RCALT14, [], [7]),
    # fz's input and output checks; fz_inverse's input check, and no output check
    (["fz"], PERM9, HISTORY9, [9], [9]),
    (["fz", "--inverse"], HISTORY9, PERM9, [], [9]),
    # phi's check of both rows (the snake is signed as built); phi_inverse's check
    # of the snake, then phi_step1_inverse's of both rows (the round trip re-checks nothing)
    (["phi"], WIP9, SNAKE9, [9, 9], []),
    (["phi", "--inverse"], SNAKE9, WIP9, [9, 9, 9], []),
    # the input checks of psi and of psi_inverse; their images are permutations as built
    (["psi"], SNAKE7, RCALT14, [7], []),
    (["psi", "--inverse"], RCALT14, SNAKE7, [14], []),
    # wbar's one check; its image needs none
    (["wbar"], LBP7, "UUUDDUU;0,1,1,0,1,1,2\n", [], [7]),
    (["wbar", "--inverse"], "UUUDDUU;0,1,1,0,1,1,2\n", LBP7, [], [7]),
]


def test_map_snake2lbp_checks_each_permutation_once(monkeypatch):
    lengths, steps = [], []
    real, real_caps = permcore.is_permutation, paths._caps
    monkeypatch.setattr(permcore, "is_permutation", lambda word: lengths.append(len(word)) or real(word))
    monkeypatch.setattr(paths, "_caps", lambda s, *a, **k: steps.append(len(s)) or real_caps(s, *a, **k))
    assert sorted(" ".join(argv) for argv, *_ in CHECKS) == sorted(
        name + " --inverse" * inverse for name in BIJECTIONS for inverse in (False, True))
    for argv, text, image, want_lengths, want_steps in CHECKS:
        lengths.clear()
        steps.clear()
        assert run_cli(["map", "--bijection", *argv], text) == (0, image, ""), argv
        assert (lengths, steps) == (want_lengths, want_steps), argv
    assert sum(len(row[3]) for row in CHECKS) == 11 and sum(len(row[4]) for row in CHECKS) == 8


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


def test_map_refuses_a_line_one_character_over_the_bound():
    # the over-long line is read in bounded pieces and dropped; the next lines still map
    text = "1" * (cli.MAP_LINE_MAX + 1) + "\n2 1\n1"
    code, out, err = run_cli(["map", "--bijection", "psi"], text)
    assert (code, out) == (1, "2 1 4 3\n2 1\n")
    assert err == f"ERROR 1: LineTooLong: line longer than {cli.MAP_LINE_MAX} characters\n"


@pytest.mark.parametrize("tail", ["", "\n"])
def test_map_line_bound_counts_characters_without_the_newline(monkeypatch, tail):
    # at a bound of 7, "1 -2 3 " (not canonical) and the last line are read whole, the
    # 8-character "1 -2 -3 " is refused, and so is a 30-character line read in 4 pieces
    monkeypatch.setattr(cli, "MAP_LINE_MAX", 7)
    code, out, err = run_cli(["map", "--bijection", "psi"],
                             "1 -2 3 \n1 -2 -3 \n" + "1 " * 15 + "\n2 -3 -1" + tail)
    assert (code, out) == (1, "3 1 5 2 6 4\n")
    assert err.splitlines() == ["ERROR 1: NotCanonical: '1 -2 3 ' is not canonical text",
                                "ERROR 2: LineTooLong: line longer than 7 characters",
                                "ERROR 3: LineTooLong: line longer than 7 characters"]


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
    # function object at import time would bypass the rebinding. A good line
    # meets the reader and the map only; the parse names a rejected line's error
    calls = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

    spy(bijections, "psi")
    spy(paths, "wbar")
    spy(permcore, "read_perm")
    spy(paths, "parse_path_text")
    spy(permcore, "parse_signed")
    spy(paths, "parse_labeled_ballot")
    assert run_cli(["map", "--bijection", "psi"], "1\n") == (0, "2 1\n", "")
    assert run_cli(["map", "--bijection", "wbar"], "U;0\n") == (0, "U;0\n", "")
    assert calls == ["read_perm", "psi", "parse_path_text", "wbar"]
    calls.clear()
    assert run_cli(["map", "--bijection", "psi"], "1 1\n")[0] == 1
    assert run_cli(["map", "--bijection", "wbar"], "U;1\n")[0] == 1
    assert calls == ["read_perm", "psi", "parse_signed", "read_perm",
                     "parse_path_text", "wbar", "parse_labeled_ballot", "parse_path_text"]


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


def test_verify_negative_is_usage_error():
    assert run_cli(["verify", "--n-max", "-1"]) == (2, "", "n-max must be >= 0\n")


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


def test_springer_above_1000_is_a_usage_error(monkeypatch):
    monkeypatch.setattr(families, "springer_egf", _refuse_to_count)
    monkeypatch.setattr(paths, "lbp_dp_counts", _refuse_to_count)
    assert run_cli(["springer", "--n-max", "1001"]) == (2, "", "n-max must be <= 1000\n")
    monkeypatch.setattr(families, "springer_egf", lambda m: (0,) * (m + 1))
    monkeypatch.setattr(paths, "lbp_dp_counts", lambda m: (0,) * (m + 1))
    assert run_cli(["springer", "--n-max", "1000"]) == (0, "0\n" * 1001, "")


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

"""Acceptance suite: one test per criterion, each at its stated (exact) tolerance.

Every test prints one `ACCEPTANCE k <label>: PASS` line when its assertions
hold; run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
exhaustive criteria run verify's own rows, which raise on a counterexample.
"""

import io
import time

from springerbij.bijections import (
    fz,
    fz_inverse,
    phi,
    phi_step1,
    phi_step2,
    psi,
    snake_to_lbp,
)
from springerbij.cli import main
from springerbij.families import (
    ThreeWIP,
    enumerate_lbp,
    enumerate_rcalt,
    enumerate_snakes,
    enumerate_wip3,
    euler_sequence,
    springer_egf,
)
from springerbij.paths import format_path, lbp_dp_counts
from springerbij.permcore import format_marked, format_perm
from springerbij.verify import PROPERTIES

SNAKES_3 = {
    (1, -2, 3), (1, -3, 2), (1, -3, -2),
    (2, 1, 3), (2, -1, 3), (2, -3, 1), (2, -3, -1),
    (3, 1, 2), (3, -1, 2), (3, -2, 1), (3, -2, -1),
}


ROWS = {name: check for name, _, check in PROPERTIES}


def report(number, label):
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_criterion_1_sequence_reproduction():
    start = time.perf_counter()
    stdout = io.StringIO()
    code = main(["springer", "--n-max", "6"], stdin=io.StringIO(), stdout=stdout,
                stderr=io.StringIO())
    assert code == 0
    assert stdout.getvalue().splitlines() == ["1", "1", "3", "11", "57", "361", "2763"]
    assert euler_sequence(6) == (1, 1, 1, 2, 5, 16, 61)
    assert time.perf_counter() - start < 1.0
    report(1, "sequence reproduction")


def test_criterion_2_four_way_count_equality():
    start = time.perf_counter()
    springer = springer_egf(6)
    for n in range(7):
        counts = {
            "snakes": sum(1 for _ in enumerate_snakes(n)),
            "wip3": sum(1 for _ in enumerate_wip3(n)),
            "rcalt": sum(1 for _ in enumerate_rcalt(n)),
            "lbp": sum(1 for _ in enumerate_lbp(n)),
        }
        assert set(counts.values()) == {springer[n]}, (n, counts)
    assert time.perf_counter() - start < 60.0
    report(2, "four-way count equality n<=6")


def test_criterion_3_golden_examples():
    wip = ThreeWIP((1, 5, 2, 6, 7, 3, 8, 9, 4), (2, 5, 6, 3, 1, 7, 8, 4, 9))
    tau = phi_step1(wip)
    assert tau.marks == {7, 9}
    tau_tilde = phi_step2(tau)
    assert tau_tilde.perm == (5, 7, 1, 2, 6, 3, 8, 9, 4)
    assert format_marked(tau_tilde) == "5 7^ 1 2 6 3 8 9^ 4"
    assert format_perm(phi(wip)) == "5 -7 -1 -2 6 3 8 -9 -4"

    assert psi((2, 1, 5, -4, -3)) == (3, 2, 10, 6, 7, 4, 5, 1, 9, 8)
    assert psi((1, -5, -3, -6, 2, -4)) == (10, 5, 12, 9, 11, 6, 7, 2, 4, 1, 8, 3)

    hw = fz((4, 3, 1, 2, 9, 6, 8, 5, 7))
    assert format_path(hw) == "UHTDUUHDD;0,1,0,0,0,0,2,1,0"
    assert fz_inverse(hw) == (4, 3, 1, 2, 9, 6, 8, 5, 7)

    assert format_path(snake_to_lbp((2, -1, 5, 4, 7, -6, -3))) == "UUUDDUU;0,0,1,2,0,0,0"
    report(3, "golden worked examples")


def test_criterion_4_snake_list():
    assert set(enumerate_snakes(3)) == SNAKES_3
    report(4, "the 11 snakes of length 3")


def test_criterion_5_roundtrip_exhaustion():
    # inverse(f(x)) == x is checked in the bijective rows of phi, psi and fz, which hold
    # each f(x); their roundtrip rows check f(inverse(y)) == y, and bigpsi's row both
    start = time.perf_counter()
    for name in ("phi", "psi"):
        ROWS[f"bijections/{name}-bijective"](6)
    for name in ("phi", "psi", "bigpsi"):
        ROWS[f"bijections/{name}-roundtrip"](6)
    ROWS["bijections/fz-bijective"](7)
    ROWS["bijections/fz-roundtrip"](7)
    assert time.perf_counter() - start < 120.0
    report(5, "roundtrip exhaustion (n<=6, fz n<=7)")


def test_criterion_6_statistic_identities():
    ROWS["bijections/pattern-sum-matches-height"](7)
    ROWS["bijections/fz-commutes-with-rc"](7)
    # middle parity: mirrored entries sum to 2n+1, so the down-up middle
    # comparison splits values into halves, with equality reachable on the
    # small side only (e.g. 2 1 has p[2] = n; 4 2 3 1 has p[2] = n)
    ROWS["bijections/rcalt-middle-parity"](6)
    report(6, "statistic identities (pattern sum, rc commutation, middle parity)")


def test_criterion_7_oracle_agreement():
    egf = springer_egf(12)
    assert lbp_dp_counts(12) == egf
    assert egf[7] == 24611
    assert sum(1 for _ in enumerate_snakes(7)) == 24611
    report(7, "counting oracles agree n<=12")


def test_criterion_8_involutions():
    ROWS["paths/wbar-involution"](7)
    ROWS["paths/history-rc-involution"](7)
    report(8, "wbar and history-rc involutions n<=7")

"""Acceptance suite: one test per criterion, each at its stated (exact) tolerance.

Every test prints one `ACCEPTANCE k <label>: PASS` line when its assertions
hold; run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io
import itertools
import time

from springerbij.bijections import (
    fz,
    fz_inverse,
    lbp_to_rcalt,
    phi,
    phi_inverse,
    phi_trace,
    psi,
    psi_inverse,
    rcalt_to_lbp,
    snake_to_lbp,
)
from springerbij.cli import main
from springerbij.families import (
    ThreeWIP,
    enumerate_laguerre,
    enumerate_lbp,
    enumerate_rcalt,
    enumerate_snakes,
    enumerate_wip3,
    euler_sequence,
    springer_egf,
)
from springerbij.paths import (
    count_lbp_dp,
    format_path,
    history_rc,
    wbar,
)
from springerbij.permcore import format_marked, format_signed, reverse_complement

SNAKES_3 = {
    (1, -2, 3), (1, -3, 2), (1, -3, -2),
    (2, 1, 3), (2, -1, 3), (2, -3, 1), (2, -3, -1),
    (3, 1, 2), (3, -1, 2), (3, -2, 1), (3, -2, -1),
}


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
    springer = springer_egf(6).values
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
    trace = phi_trace(wip)
    assert format_signed(trace.snake) == "5 -7 -1 -2 6 3 8 -9 -4"
    assert trace.tau.marks == {7, 9}
    assert trace.tau_tilde.perm == (5, 7, 1, 2, 6, 3, 8, 9, 4)
    assert format_marked(trace.tau_tilde) == "5 7^ 1 2 6 3 8 9^ 4"

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
    start = time.perf_counter()
    for n in range(7):
        for wip in enumerate_wip3(n):
            assert phi_inverse(phi(wip)) == wip
        for snake in enumerate_snakes(n):
            assert phi(phi_inverse(snake)) == snake  # phi_inverse never raises InconsistentBars
            assert psi_inverse(psi(snake)) == snake
        for perm in enumerate_rcalt(n):
            assert psi(psi_inverse(perm)) == perm
            assert lbp_to_rcalt(rcalt_to_lbp(perm)) == perm
        for lbp in enumerate_lbp(n):
            assert rcalt_to_lbp(lbp_to_rcalt(lbp)) == lbp
    for n in range(8):
        for perm in itertools.permutations(range(1, n + 1)):
            assert fz_inverse(fz(perm)) == perm
        for hw in enumerate_laguerre(n):
            assert fz(fz_inverse(hw)) == hw
    assert time.perf_counter() - start < 120.0
    report(5, "roundtrip exhaustion (n<=6, fz n<=7)")


def test_criterion_6_statistic_identities():
    from springerbij.verify import pattern_sum_matches_height

    for n in range(8):
        for perm in itertools.permutations(range(1, n + 1)):
            assert pattern_sum_matches_height(perm)
            assert fz(reverse_complement(perm)) == history_rc(fz(perm))
    # middle parity: mirrored entries sum to 2n+1, so the down-up middle
    # comparison splits values into halves, with equality reachable on the
    # small side only (e.g. 2 1 has p[2] = n; 4 2 3 1 has p[2] = n)
    for n in range(1, 7):
        for perm in enumerate_rcalt(n):
            if n % 2:
                assert perm[n - 1] > n >= perm[n]
            else:
                assert perm[n - 1] <= n < perm[n]
    report(6, "statistic identities (pattern sum, rc commutation, middle parity)")


def test_criterion_7_oracle_agreement():
    egf = springer_egf(12).values
    assert tuple(count_lbp_dp(n) for n in range(13)) == egf
    assert egf[7] == 24611
    assert sum(1 for _ in enumerate_snakes(7)) == 24611
    report(7, "counting oracles agree n<=12")


def test_criterion_8_involutions():
    for n in range(8):
        for lbp in enumerate_lbp(n):
            assert wbar(wbar(lbp)) == lbp
        for hw in enumerate_laguerre(n):
            assert history_rc(history_rc(hw)) == hw
    report(8, "wbar and history-rc involutions n<=7")

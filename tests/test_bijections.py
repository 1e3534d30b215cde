"""Unit tests for the bijections, pinned to worked examples and exhaustion at small n."""

import itertools

import pytest

from springerbij.bijections import (
    fz,
    fz_inverse,
    lbp_to_rcalt,
    lbp_to_snake,
    phi,
    phi_inverse,
    phi_inverse_trace,
    phi_step1,
    phi_step1_inverse,
    phi_trace,
    psi,
    psi_inverse,
    rcalt_to_lbp,
    snake_to_lbp,
)
from springerbij.errors import (
    HorizontalStepPresent,
    MarkNotCyclePeak,
    NotAlternating,
    NotASnake,
    NotClosed,
    NotRcInvariant,
    OddLength,
    PlaceholderExhausted,
    ValidationError,
)
from springerbij.families import (
    ThreeWIP,
    enumerate_lbp,
    enumerate_rcalt,
    enumerate_snakes,
    enumerate_wip3,
)
from springerbij.paths import (
    LabeledBallotPath,
    LaguerreHistory,
    format_path,
    height_profile,
    history_rc,
)
from springerbij.permcore import format_marked, reverse_complement
from springerbij.verify import pattern_sum_matches_height

WIP9 = ThreeWIP((1, 5, 2, 6, 7, 3, 8, 9, 4), (2, 5, 6, 3, 1, 7, 8, 4, 9))
SNAKE9 = (5, -7, -1, -2, 6, 3, 8, -9, -4)


# --- phi step 1 -------------------------------------------------------------

def test_phi_step1_worked_example():
    mp = phi_step1(WIP9)
    assert mp.perm == (2, 6, 7, 9, 5, 3, 1, 8, 4)
    assert mp.marks == {7, 9}


def test_phi_step1_small():
    assert phi_step1(ThreeWIP((1,), (1,))).perm == (1,)
    assert phi_step1(ThreeWIP((1,), (1,))).marks == frozenset()
    mp = phi_step1(ThreeWIP((1, 2), (2, 1)))
    assert mp.perm == (2, 1) and mp.marks == frozenset()
    mp = phi_step1(ThreeWIP((2, 1), (1, 2)))
    assert mp.perm == (2, 1) and mp.marks == {2}


def test_phi_step1_inverse_worked_example():
    mp = phi_step1(WIP9)
    assert phi_step1_inverse(mp) == WIP9


def test_phi_step1_inverse_small():
    from springerbij.permcore import MarkedPermutation

    assert phi_step1_inverse(MarkedPermutation((1,), frozenset())) == ThreeWIP((1,), (1,))
    assert phi_step1_inverse(MarkedPermutation((2, 1), frozenset({2}))) == ThreeWIP((2, 1), (1, 2))
    assert phi_step1_inverse(MarkedPermutation((2, 1), frozenset())) == ThreeWIP((1, 2), (2, 1))
    with pytest.raises(MarkNotCyclePeak):
        phi_step1_inverse(MarkedPermutation((1, 2, 3), frozenset({2})))


def test_phi_step1_roundtrip_exhaustive():
    for n in range(6):
        for wip in enumerate_wip3(n):
            assert phi_step1_inverse(phi_step1(wip)) == wip


# --- phi --------------------------------------------------------------------

def test_phi_worked_example_with_trace():
    trace = phi_trace(WIP9)
    assert trace.snake == SNAKE9
    assert trace.tau.perm == (2, 6, 7, 9, 5, 3, 1, 8, 4)
    assert trace.tau.marks == {7, 9}
    assert trace.tau_tilde.perm == (5, 7, 1, 2, 6, 3, 8, 9, 4)
    assert format_marked(trace.tau_tilde) == "5 7^ 1 2 6 3 8 9^ 4"
    assert phi(WIP9) == SNAKE9


def test_phi_small():
    assert phi(ThreeWIP((1,), (1,))) == (1,)
    assert phi(ThreeWIP((1, 2), (2, 1))) == (2, 1)
    images = {
        phi(ThreeWIP((1, 2), (1, 2))),
        phi(ThreeWIP((1, 2), (2, 1))),
        phi(ThreeWIP((2, 1), (1, 2))),
    }
    assert images == {(1, -2), (2, 1), (2, -1)}


def test_phi_inverse_examples():
    assert phi_inverse(SNAKE9) == WIP9
    assert phi_inverse((1,)) == ThreeWIP((1,), (1,))
    assert phi_inverse((2, -1)) == ThreeWIP((2, 1), (1, 2))
    with pytest.raises(NotASnake):
        phi_inverse((1, 2))


def test_phi_bijective_exhaustive():
    for n in range(6):
        images = [phi(w) for w in enumerate_wip3(n)]
        assert len(set(images)) == len(images)
        assert set(images) == set(enumerate_snakes(n))
        for w in enumerate_wip3(n):
            assert phi_inverse(phi(w)) == w
        for s in enumerate_snakes(n):
            assert phi(phi_inverse(s)) == s


# --- psi --------------------------------------------------------------------

def test_psi_worked_examples():
    assert psi((2, 1, 5, -4, -3)) == (3, 2, 10, 6, 7, 4, 5, 1, 9, 8)
    assert psi((1, -5, -3, -6, 2, -4)) == (10, 5, 12, 9, 11, 6, 7, 2, 4, 1, 8, 3)
    assert psi((1,)) == (2, 1)
    assert psi(()) == ()


def test_psi_inverse_worked_examples():
    assert psi_inverse((3, 2, 10, 6, 7, 4, 5, 1, 9, 8)) == (2, 1, 5, -4, -3)
    assert psi_inverse((10, 5, 12, 9, 11, 6, 7, 2, 4, 1, 8, 3)) == (1, -5, -3, -6, 2, -4)
    assert psi_inverse((2, 1)) == (1,)
    assert psi_inverse(()) == ()


def test_psi_errors():
    with pytest.raises(NotASnake):
        psi((-1,))
    with pytest.raises(OddLength):
        psi_inverse((2, 1, 3))
    with pytest.raises(NotAlternating):
        psi_inverse((1, 2, 3, 4))
    with pytest.raises(NotRcInvariant):
        psi_inverse((4, 1, 3, 2))  # alternating, but mirrored entries sum to 6, not 5


@pytest.mark.parametrize("bijection, obj, exc", [
    (phi, ThreeWIP((2, 1), (2, 1)), ValueError),  # column maxima 2, 1 decrease
    (psi, (3, -5), NotASnake),  # down-up, not a signed permutation
    (phi_inverse, (3, -5), NotASnake),
    (snake_to_lbp, (3, -5), NotASnake),
    (psi_inverse, (4, 0, 5, 1), ValidationError),  # rc-invariant, not a permutation
    (rcalt_to_lbp, (4, 0, 5, 1), ValidationError),
    (lbp_to_rcalt, LabeledBallotPath("UH", (0, 0)), HorizontalStepPresent),
    (lbp_to_snake, LabeledBallotPath("H", (0,)), HorizontalStepPresent),
])
def test_bijections_reject_non_members(bijection, obj, exc):
    with pytest.raises(exc):
        bijection(obj)


def test_psi_bijective_exhaustive():
    for n in range(6):
        images = [psi(s) for s in enumerate_snakes(n)]
        assert len(set(images)) == len(images)
        assert set(images) == set(enumerate_rcalt(n))
        for s in enumerate_snakes(n):
            assert psi_inverse(psi(s)) == s


def test_middle_parity_boundary_cases():
    # genuine members where the middle entries touch n / n+1 exactly, so the
    # strict two-sided inequality cannot hold; the half-split form does
    assert psi((1,)) == (2, 1)                # n = 1: p[2] = 1 = n
    p = psi((1, -5, -3, -6, 2, -4))           # n = 6: p[6] = 6 = n
    assert p[5] == 6 and p[6] == 7
    for n in range(1, 6):
        for q in enumerate_rcalt(n):
            if n % 2:
                assert q[n - 1] > n >= q[n]
            else:
                assert q[n - 1] <= n < q[n]


# --- fz -----------------------------------------------------------------------

def test_fz_worked_example():
    hw = fz((4, 3, 1, 2, 9, 6, 8, 5, 7))
    assert hw == LaguerreHistory("UHTDUUHDD", (0, 1, 0, 0, 0, 0, 2, 1, 0))
    assert fz((1,)) == LaguerreHistory("H", (0,))
    assert fz((2, 1)) == LaguerreHistory("UD", (0, 0))
    assert fz(()) == LaguerreHistory("", ())


def test_fz_inverse_worked_example():
    hw = LaguerreHistory("UHTDUUHDD", (0, 1, 0, 0, 0, 0, 2, 1, 0))
    assert fz_inverse(hw) == (4, 3, 1, 2, 9, 6, 8, 5, 7)
    assert fz_inverse(LaguerreHistory("H", (0,))) == (1,)
    assert fz_inverse(LaguerreHistory("UD", (0, 0))) == (2, 1)


def test_fz_inverse_rejects_malformed():
    with pytest.raises(PlaceholderExhausted) as excinfo:
        fz_inverse(LaguerreHistory("H", (1,)))  # wants the 2nd placeholder of one
    assert excinfo.value.index == 1
    with pytest.raises(NotClosed):
        fz_inverse(LaguerreHistory("UU", (0, 0)))  # leftover placeholders


def test_fz_roundtrip_exhaustive():
    from springerbij.families import enumerate_laguerre

    for n in range(7):
        for p in itertools.permutations(range(1, n + 1)):
            assert fz_inverse(fz(p)) == p
        for hw in enumerate_laguerre(n):
            assert fz(fz_inverse(hw)) == hw


def test_fz_commutes_with_rc():
    # also pins the corrected reverse-complement image of the worked history
    p = (4, 3, 1, 2, 9, 6, 8, 5, 7)
    expected = LaguerreHistory("UUHDDUTHD", (0, 0, 0, 1, 0, 0, 0, 0, 0))
    assert fz(reverse_complement(p)) == expected
    assert history_rc(fz(p)) == expected
    for n in range(6):
        for p in itertools.permutations(range(1, n + 1)):
            assert fz(reverse_complement(p)) == history_rc(fz(p))


def test_pattern_sum_matches_height_small():
    for n in range(6):
        for p in itertools.permutations(range(1, n + 1)):
            assert pattern_sum_matches_height(p)


# --- halved maps and composites -------------------------------------------------

def test_rcalt_to_lbp_worked_examples():
    lbp = rcalt_to_lbp((5, 2, 14, 11, 12, 7, 9, 6, 8, 3, 4, 1, 13, 10))
    assert format_path(lbp) == "UUUDDUU;0,0,1,2,0,0,0"
    assert format_path(rcalt_to_lbp((2, 1))) == "U;0"
    assert format_path(rcalt_to_lbp((3, 2, 10, 6, 7, 4, 5, 1, 9, 8))) == "UUDUD;0,0,0,0,1"


def test_rcalt_fz_image_is_rc_fixed_dyck():
    for n in range(5):
        for p in enumerate_rcalt(n):
            hw = fz(p)
            assert set(hw.steps) <= {"U", "D"}
            assert history_rc(hw) == hw
            heights = height_profile(hw.steps)
            assert not heights or heights[-1] == 1  # closed Dyck word


def test_rcalt_fz_image_is_exactly_the_rc_fixed_level_free_histories():
    # confirms that halving loses nothing: the image set coincides with the
    # set it is halved over, so the rc fixed-point extension is its inverse
    from springerbij.families import enumerate_laguerre

    for n in range(4):
        image = {fz(p) for p in enumerate_rcalt(n)}
        target = {
            hw
            for hw in enumerate_laguerre(2 * n)
            if set(hw.steps) <= {"U", "D"} and history_rc(hw) == hw
        }
        assert image == target


def test_lbp_to_rcalt_worked_examples():
    assert lbp_to_rcalt(LabeledBallotPath("U", (0,))) == (2, 1)
    assert lbp_to_rcalt(LabeledBallotPath("UUUDDUU", (0, 0, 1, 2, 0, 0, 0))) == (
        5, 2, 14, 11, 12, 7, 9, 6, 8, 3, 4, 1, 13, 10,
    )
    assert lbp_to_rcalt(LabeledBallotPath("UU", (0, 1))) == (3, 1, 4, 2)
    assert (3, 1, 4, 2) in set(enumerate_rcalt(2))


def test_halved_roundtrip_exhaustive():
    for n in range(6):
        for p in enumerate_rcalt(n):
            assert lbp_to_rcalt(rcalt_to_lbp(p)) == p
        for lbp in enumerate_lbp(n):
            assert rcalt_to_lbp(lbp_to_rcalt(lbp)) == lbp


def test_snake_to_lbp_worked_examples():
    assert format_path(snake_to_lbp((2, -1, 5, 4, 7, -6, -3))) == "UUUDDUU;0,0,1,2,0,0,0"
    assert format_path(snake_to_lbp((1,))) == "U;0"
    assert format_path(snake_to_lbp((1, -2, 3))) == "UUU;0,0,1"
    with pytest.raises(NotASnake):
        snake_to_lbp((1, 2))


def test_snake_to_lbp_bijective_exhaustive():
    for n in range(6):
        images = [snake_to_lbp(s) for s in enumerate_snakes(n)]
        assert len(set(images)) == len(images)
        assert set(images) == set(enumerate_lbp(n))
        for s in enumerate_snakes(n):
            assert lbp_to_snake(snake_to_lbp(s)) == s


def test_bars_always_consistent_and_sign_pattern():
    from springerbij.permcore import right_valleys

    for n in range(9):
        for s in enumerate_snakes(n):
            phi_inverse_trace(s)  # must not raise InconsistentBars
            word = tuple(abs(v) for v in s)
            valleys = set(right_valleys(word))
            for pos, v in enumerate(s, start=1):
                if pos not in valleys:
                    assert (v > 0) == (pos % 2 == 1)

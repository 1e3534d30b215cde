"""Unit tests for the bijections, pinned to worked examples and exhaustion at small n."""

import itertools

import pytest

from springerbij.bijections import (
    BIJECTIONS,
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
    ValidationError,
    WeightOutOfRange,
)
from springerbij.families import (
    ThreeWIP,
    domain,
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
    (fz, (1, 1), ValidationError),
    (fz_inverse, LaguerreHistory("UX", (0, 0)), ValidationError),
    (fz_inverse, LaguerreHistory("T", (0,)), WeightOutOfRange),  # a T step on the axis
])
def test_bijections_reject_non_members(bijection, obj, exc):
    with pytest.raises(exc):
        bijection(obj)


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
    with pytest.raises(WeightOutOfRange) as excinfo:
        fz_inverse(LaguerreHistory("H", (1,)))  # an H step on the axis carries weight 0
    assert excinfo.value.index == 1
    with pytest.raises(NotClosed):
        fz_inverse(LaguerreHistory("UU", (0, 0)))  # leftover placeholders


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


def test_snake_to_lbp_worked_examples():
    assert format_path(snake_to_lbp((2, -1, 5, 4, 7, -6, -3))) == "UUUDDUU;0,0,1,2,0,0,0"
    assert format_path(snake_to_lbp((1,))) == "U;0"
    assert format_path(snake_to_lbp((1, -2, 3))) == "UUU;0,0,1"
    with pytest.raises(NotASnake):
        snake_to_lbp((1, 2))


@pytest.mark.parametrize("name", list(BIJECTIONS))
def test_bijection_exhaustive(name):
    # one-to-one onto the codomain, and the inverse undoes the map, at every n
    # up to 5 (6 for fz); so the map also undoes the inverse on the codomain
    bij = BIJECTIONS[name]
    for n in range(7 if name == "fz" else 6):
        objects = list(domain(bij.domain).generate(n))
        images = [bij.forward(x) for x in objects]
        assert len(set(images)) == len(images)
        assert set(images) == set(domain(bij.codomain).generate(n))
        assert [bij.inverse(y) for y in images] == objects


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

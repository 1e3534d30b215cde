"""Unit tests for the bijections, pinned to worked examples and exhaustion at small n."""

import itertools
import random

import pytest

from springerbij import bijections, verify
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
    phi_step2,
    place_bars,
    psi,
    psi_inverse,
    rcalt_to_lbp,
    snake_to_lbp,
    unbar,
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
    enumerate_laguerre,
    enumerate_lbp,
    enumerate_rcalt,
    enumerate_wip3,
)
from springerbij.paths import (
    LabeledBallotPath,
    LaguerreHistory,
    format_path,
    history_rc,
    weight_caps,
)
from springerbij.permcore import (
    MarkedPermutation,
    count_pat_2_31_at,
    count_pat_31_2_at,
    format_marked,
    left_peaks,
    reverse_complement,
)
from test_kernels import (  # the one reference of fz, fz_inverse, unbar and place_bars
    _fz_draws,
    _fz_inverse_oracle,
    _fz_oracle,
    _place_bars_comprehension_oracle,
    _same_fz,
    _unbar_comprehension_oracle,
)

ROWS = {name: check for name, _, check in verify.PROPERTIES}  # a failing row raises Counterexample
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
    # step by step: the tau and tautilde that --trace prints, then the bars
    tau = phi_step1(WIP9)
    assert tau.perm == (2, 6, 7, 9, 5, 3, 1, 8, 4)
    assert tau.marks == {7, 9}
    tau_tilde = phi_step2(tau)
    assert tau_tilde.perm == (5, 7, 1, 2, 6, 3, 8, 9, 4)
    assert format_marked(tau_tilde) == "5 7^ 1 2 6 3 8 9^ 4"
    assert place_bars(tau_tilde) == SNAKE9
    assert phi(WIP9) == SNAKE9


def test_phi_trace_is_what_phi_inverse_passes_through_on_the_image():
    # map traces an inverse line through its image: that prints the right lines
    # only if phi's steps 1 and 2 on w are phi_inverse's steps 3 and 2 undone on phi(w)
    trace = BIJECTIONS["phi"].trace
    for n in range(7):
        for w in enumerate_wip3(n):
            snake = phi(w)
            assert dict(trace(w)) == {"tau": format_marked(phi_inverse_trace(snake)),
                                      "tautilde": format_marked(unbar(snake))}


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


def test_phi_inverse_rechecks_its_image_under_phi(monkeypatch):
    # a step 1 inverse that returns another valid 3-WIP of the same size must not
    # pass: phi_inverse's round trip is the only check that catches it
    other = ThreeWIP(tuple(range(1, 10)), tuple(range(1, 10)))
    assert phi(other) != SNAKE9
    monkeypatch.setattr(bijections, "phi_step1_inverse", lambda tau: other)
    with pytest.raises(ValidationError, match=r"^phi does not map phi_inverse's image back to \(5, -7,"):
        phi_inverse(SNAKE9)


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
        fz_inverse(LaguerreHistory("UU", (0, 0)))  # ends at height 2; validate_laguerre rejects it


def test_fz_inverse_rejects_non_integer_weights():
    # a float within its cap names no placeholder; validate_laguerre rejects it first
    for hw in (LaguerreHistory("H", (0.0,)), LaguerreHistory("UHD", (0, 0.5, 0))):
        with pytest.raises(WeightOutOfRange):
            fz_inverse(hw)


def test_fz_commutes_with_rc():
    # also pins the corrected reverse-complement image of the worked history
    p = (4, 3, 1, 2, 9, 6, 8, 5, 7)
    expected = LaguerreHistory("UUHDDUTHD", (0, 0, 0, 1, 0, 0, 0, 0, 0))
    assert fz(reverse_complement(p)) == expected
    assert history_rc(fz(p)) == expected


def test_fz_matches_the_pattern_count_rule():
    # fz and its unchecked core on every permutation with n <= 7
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            assert fz(p) == bijections._fz(p) == _fz_oracle(p)


def test_fz_inverse_matches_the_token_scan():
    for n in range(8):
        for hw in enumerate_laguerre(n):
            assert fz_inverse(hw) == bijections._fz_inverse(hw) == _fz_inverse_oracle(hw)


def test_fz_matches_the_old_rules_on_random_permutations_at_n_512():
    # the seeded draws at n = 512, uniform and down-up (test_kernels.py has n = 4096)
    _same_fz(p for p in _fz_draws() if len(p) == 512)


def test_fz_roundtrip_at_n_4096():
    rng = random.Random(4096)
    p = tuple(rng.sample(range(1, 4097), 4096))
    assert fz_inverse(fz(p)) == p


def test_pattern_sum_matches_height_small():
    # the worked permutation: at each value, the straddling descents on its left and
    # on its right add up to the weight cap of the value's step in fz's history
    p = (4, 3, 1, 2, 9, 6, 8, 5, 7)
    sums = tuple(count_pat_31_2_at(p, i) + count_pat_2_31_at(p, i) for i in range(1, 10))
    assert sums == tuple(weight_caps(fz(p))) == (0, 1, 0, 0, 0, 1, 2, 1, 0)


# --- halved maps and composites -------------------------------------------------

def test_rcalt_to_lbp_worked_examples():
    lbp = rcalt_to_lbp((5, 2, 14, 11, 12, 7, 9, 6, 8, 3, 4, 1, 13, 10))
    assert format_path(lbp) == "UUUDDUU;0,0,1,2,0,0,0"
    assert format_path(rcalt_to_lbp((2, 1))) == "U;0"
    assert format_path(rcalt_to_lbp((3, 2, 10, 6, 7, 4, 5, 1, 9, 8))) == "UUDUD;0,0,0,0,1"


def test_rcalt_fz_image_is_rc_fixed_dyck():
    # fz checks that its image is a closed history, so without level steps it is a Dyck word
    ROWS["bijections/rcalt-history-is-rc-fixed-dyck"](4)


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


def test_the_paper_chain_maps_the_3wips_onto_the_labeled_ballot_paths():
    # wip3 -> snakes -> lbp (phi, then snake2lbp) is one-to-one onto the labeled
    # ballot paths at every n <= 6, and lbp_to_snake then phi_inverse undo it
    for n in range(7):
        wips = list(enumerate_wip3(n))
        images = [snake_to_lbp(phi(wip)) for wip in wips]
        assert len(set(images)) == len(images)
        assert set(images) == set(enumerate_lbp(n))
        assert [phi_inverse(lbp_to_snake(path)) for path in images] == wips


def test_bars_always_consistent_and_sign_pattern():
    # the two verify rows themselves at their bound, n <= 8
    for name in ("bijections/bars-always-consistent", "bijections/snake-sign-pattern"):
        ROWS[name](8)


def test_step3_matches_the_nearest_peak_rule():
    # every signed permutation with n <= 6 through unbar, and every permutation with
    # n <= 6 under every set of its left peak values through place_bars
    for n in range(7):
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                signed = tuple(s * v for s, v in zip(signs, perm))
                assert unbar(signed) == _unbar_comprehension_oracle(signed)
            values = [perm[i - 1] for i in left_peaks(perm)]
            for k in range(len(values) + 1):
                for marks in itertools.combinations(values, k):
                    tau_tilde = MarkedPermutation(perm, frozenset(marks))
                    assert place_bars(tau_tilde) == _place_bars_comprehension_oracle(tau_tilde)


def test_phi_roundtrip_on_random_snakes_at_n_512():
    # bars placed on a uniform permutation with a random half of its left peaks marked
    rng = random.Random(512)
    for _ in range(10):
        word = tuple(rng.sample(range(1, 513), 512))
        marks = frozenset(word[i - 1] for i in left_peaks(word) if rng.random() < 0.5)
        snake = place_bars(MarkedPermutation(word, marks))
        assert unbar(snake) == _unbar_comprehension_oracle(snake) == MarkedPermutation(word, marks)
        assert phi(phi_inverse(snake)) == snake

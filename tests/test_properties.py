"""Property-based tests: the documented invariants on randomized inputs.

These extend the exhaustive small-n sweeps to random objects a little beyond
the exhaustion range (n up to 10-12), which is where an indexing slip would
most plausibly hide.
"""

import doctest

from hypothesis import given, settings
from hypothesis import strategies as st

import springerbij
from springerbij import bijections, cli, errors, families, paths, permcore, verify
from springerbij.bijections import fz, fz_inverse
from springerbij.paths import (
    extend_to_rc_fixed,
    halve_rc_fixed,
    history_rc,
    validate_labeled_ballot,
    validate_laguerre,
    wbar,
)
from springerbij.permcore import (
    count_pat_2_31_at,
    count_pat_31_2_at,
    cycle_peaks,
    foata,
    foata_inverse,
    invert,
    left_peaks,
    reverse_complement,
)
from springerbij.verify import pattern_sum_matches_height


@st.composite
def permutations(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


@st.composite
def snakes(draw, max_n=10):
    # total construction: any absolute word plus free sign bits at its right
    # valleys is a snake (non-valley signs are forced by position parity)
    n = draw(st.integers(min_value=0, max_value=max_n))
    word = tuple(draw(st.permutations(range(1, n + 1))))
    valleys = set(permcore.right_valleys(word))
    flip = {q: draw(st.booleans()) for q in sorted(valleys)}
    out = tuple(
        (-v if flip[pos] else v) if pos in valleys else (v if pos % 2 else -v)
        for pos, v in enumerate(word, start=1)
    )
    assert permcore.is_snake(out)
    return out


@st.composite
def laguerre_histories(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    steps = []
    weights = []
    h = 0
    for i in range(n):
        remaining = n - i
        letters = [s for s in "UDHT"
                   if 0 <= h + {"U": 1, "D": -1}.get(s, 0) <= remaining - 1
                   and (h if s in "UH" else h - 1) >= 0]
        s = draw(st.sampled_from(letters))
        cap = h if s in "UH" else h - 1
        steps.append(s)
        weights.append(draw(st.integers(min_value=0, max_value=cap)))
        h += {"U": 1, "D": -1}.get(s, 0)
    return validate_laguerre("".join(steps), weights)


@st.composite
def labeled_ballot_paths(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    steps = []
    weights = []
    h = 0
    for _ in range(n):
        s = draw(st.sampled_from("UD" if h else "U"))
        cap = h if s == "U" else h - 1
        steps.append(s)
        weights.append(draw(st.integers(min_value=0, max_value=cap)))
        h += 1 if s == "U" else -1
    return validate_labeled_ballot("".join(steps), weights)


@given(permutations())
def test_invert_is_involution(p):
    assert invert(invert(p)) == p


@given(permutations())
def test_rc_is_involution(p):
    assert reverse_complement(reverse_complement(p)) == p


@given(permutations())
def test_foata_roundtrips(p):
    assert foata_inverse(foata(p)) == p
    assert foata(foata_inverse(p)) == p


@given(permutations())
def test_foata_transports_cycle_peaks_to_left_peaks(p):
    q = foata(p)
    assert frozenset(q[i - 1] for i in left_peaks(q)) == cycle_peaks(p)


@given(permutations())
def test_pattern_rc_duality(p):
    n = len(p)
    rc = reverse_complement(p)
    for i in range(1, n + 1):
        assert count_pat_31_2_at(rc, n + 1 - i) == count_pat_2_31_at(p, i)


@given(permutations())
def test_fz_roundtrip(p):
    assert fz_inverse(fz(p)) == p


@given(permutations())
def test_fz_commutes_with_rc(p):
    assert fz(reverse_complement(p)) == history_rc(fz(p))


@given(permutations())
def test_pattern_sum_matches_height(p):
    assert pattern_sum_matches_height(p)


@given(snakes())
def test_psi_roundtrip_and_membership(s):
    image = bijections.psi(s)
    assert permcore.is_alternating(image)
    assert reverse_complement(image) == image
    assert bijections.psi_inverse(image) == s


@given(snakes(max_n=9))
def test_snake_to_lbp_roundtrip(s):
    lbp = bijections.snake_to_lbp(s)
    assert bijections.lbp_to_snake(lbp) == s


@given(laguerre_histories())
def test_history_rc_is_involution(hw):
    assert history_rc(history_rc(hw)) == hw


@given(laguerre_histories())
def test_fz_inverse_then_fz(hw):
    assert fz(fz_inverse(hw)) == hw


@given(labeled_ballot_paths())
def test_wbar_is_involution(lbp):
    assert wbar(wbar(lbp)) == lbp


@given(labeled_ballot_paths())
def test_extend_halve_roundtrip(lbp):
    hw = extend_to_rc_fixed(lbp)
    assert history_rc(hw) == hw
    assert halve_rc_fixed(hw) == lbp


@given(labeled_ballot_paths())
def test_wbar_text_roundtrip(lbp):
    text = paths.format_path(lbp)
    assert paths.format_path(paths.parse_labeled_ballot(text)) == text


@settings(max_examples=30)
@given(st.data())
def test_phi_on_random_marked_permutations(data):
    # phi_step1_inverse accepts any permutation with marked cycle peaks, so
    # random (perm, marks) pairs probe the column tie-breaking directly
    p = data.draw(permutations(max_n=9))
    peaks = sorted(cycle_peaks(p))
    marks = frozenset(data.draw(st.sets(st.sampled_from(peaks)))) if peaks else frozenset()
    mp = permcore.MarkedPermutation(tuple(p), marks)
    wip = bijections.phi_step1_inverse(mp)
    assert bijections.phi_step1(wip) == mp


def test_module_doctests():
    for mod in (springerbij, bijections, cli, errors, families, paths, permcore, verify):
        failures = doctest.testmod(mod).failed
        assert failures == 0, mod.__name__


def test_verify_registry_all_pass_small():
    results = verify.run(3)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    names = [r.name for r in results]
    assert names == sorted(names)


def test_verify_row_names_the_object_when_a_map_raises(monkeypatch):
    monkeypatch.setattr(bijections, "rcalt_to_lbp", lambda perm: perm)
    detail = {r.name: r.detail for r in verify.run(3)}["bijections/bigpsi-roundtrip"]
    assert detail.startswith("Counterexample: rcalt ")
    assert "AttributeError" in detail

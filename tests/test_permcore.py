"""Unit tests for permutation statistics, with independent brute-force oracles."""

import itertools
import math

import pytest

from springerbij.permcore import (
    MarkedPermutation,
    count_pat_2_31_at,
    count_pat_31_2_at,
    cycle_peaks,
    foata,
    foata_inverse,
    format_marked,
    format_perm,
    invert,
    is_alternating,
    is_permutation,
    is_signed_permutation,
    is_snake,
    left_peaks,
    parse_perm,
    parse_signed,
    reverse_complement,
    right_valleys,
)

from test_kernels import (  # the one reference of each of these kernels
    _left_peaks_oracle,
    _reverse_complement_oracle,
    _right_valleys_oracle,
)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


# --- independent oracles -------------------------------------------------

def oracle_invert(p):
    # solve q[p[i]] = i by scanning for each target value
    return tuple(list(p).index(k) + 1 for k in range(1, len(p) + 1))


def oracle_cycle_peaks(p):
    inv = oracle_invert(p)
    return {k for k in range(2, len(p) + 1) if inv[k - 1] < k and p[k - 1] < k}


# --- validity predicates --------------------------------------------------

def test_is_permutation():
    assert is_permutation(())
    assert is_permutation((1,))
    assert is_permutation((2, 6, 7, 9, 5, 3, 1, 8, 4))
    assert not is_permutation((2, 2))
    assert not is_permutation((0, 1))
    assert not is_permutation((1, 3))


def test_is_signed_permutation():
    assert is_signed_permutation(())
    assert is_signed_permutation((2, -1, 5, 4, 7, -6, -3))
    assert not is_signed_permutation((1, 0))
    assert not is_signed_permutation((1, -1))


# --- invert ---------------------------------------------------------------

def test_invert_examples():
    assert invert((1, 2, 3)) == (1, 2, 3)
    assert invert((2, 6, 7, 9, 5, 3, 1, 8, 4)) == (7, 1, 6, 9, 5, 2, 3, 8, 4)
    assert invert((4, 1, 3, 5, 2)) == (2, 5, 3, 1, 4)


def test_invert_matches_oracle_and_involutes():
    for n in range(7):
        for p in all_perms(n):
            assert invert(p) == oracle_invert(p)
            assert invert(invert(p)) == p


def test_invert_and_cycle_peaks_reject_words_that_are_not_permutations():
    # every word of length n <= 4 over -n-1..n+1: a permutation gets its inverse
    # and cycle peaks, any other word ValueError, where an entry outside 1..n
    # used to give IndexError or a wrong answer: invert((1, 1)) was (2, 0)
    for n in range(5):
        for word in itertools.product(range(-n - 1, n + 2), repeat=n):
            if is_permutation(word):
                assert invert(word) == oracle_invert(word)
                assert cycle_peaks(word) == oracle_cycle_peaks(word)
                continue
            for fn in (invert, cycle_peaks):
                try:
                    fn(word)
                except ValueError as exc:
                    assert str(exc) == f"not a permutation: {word}"
                else:
                    pytest.fail(f"{fn.__name__} accepts {word}")


# --- reverse_complement ---------------------------------------------------

def test_reverse_complement_examples():
    assert reverse_complement((4, 1, 3, 5, 2)) == (4, 1, 3, 5, 2)
    assert reverse_complement((1,)) == (1,)
    assert reverse_complement((4, 3, 1, 2, 9, 6, 8, 5, 7)) == (3, 5, 2, 4, 1, 8, 9, 7, 6)


def test_reverse_complement_matches_oracle_and_involutes():
    for n in range(7):
        for p in all_perms(n):
            assert reverse_complement(p) == _reverse_complement_oracle(p)
            assert reverse_complement(reverse_complement(p)) == p


# --- alternation and snakes -------------------------------------------------

def test_is_alternating():
    assert is_alternating(())
    assert is_alternating((1,))
    assert is_alternating((3, 2, 10, 6, 7, 4, 5, 1, 9, 8))
    assert not is_alternating((1, 2, 3))
    assert not is_alternating((4, 3, 1, 2, 9, 6, 8, 5, 7))


def test_is_snake():
    assert is_snake(())
    assert is_snake((2, -1, 5, 4, 7, -6, -3))
    assert is_snake((1, -2, 3))
    assert not is_snake((-1, 2, -3))
    assert not is_snake((1, 2, 3))


def test_alternating_counts_match_euler_prefix():
    counts = [
        sum(1 for p in all_perms(n) if is_alternating(p)) for n in range(7)
    ]
    assert counts == [1, 1, 1, 2, 5, 16, 61]


# --- peaks and valleys ------------------------------------------------------

def test_left_peaks_examples():
    assert left_peaks((5, 7, 1, 2, 6, 3, 8, 9, 4)) == (2, 5, 8)
    assert left_peaks((1, 2, 3)) == ()
    assert left_peaks((2, 1)) == (1,)


def test_right_valleys_examples():
    assert right_valleys((5, 7, 1, 2, 6, 3, 8, 9, 4)) == (3, 6, 9)
    assert right_valleys((1, 2, 3)) == ()
    assert right_valleys((2, 1)) == (2,)


def test_peaks_valleys_match_sentinel_oracle():
    for n in range(7):
        for p in all_perms(n):
            assert left_peaks(p) == _left_peaks_oracle(p)
            assert right_valleys(p) == _right_valleys_oracle(p)


def test_every_left_peak_has_a_right_valley_before_next_peak():
    # exact alternation, starting with a peak and ending with a valley
    for n in range(8):
        for p in all_perms(n):
            peaks = left_peaks(p)
            turns = sorted([(q, "peak") for q in peaks] + [(q, "valley") for q in right_valleys(p)])
            assert [kind for _, kind in turns] == ["peak", "valley"] * len(peaks)


# --- cycle structure --------------------------------------------------------

def test_cycle_peaks_examples():
    assert cycle_peaks((2, 6, 7, 9, 5, 3, 1, 8, 4)) == {6, 7, 9}
    assert cycle_peaks((1, 2, 3)) == frozenset()
    assert cycle_peaks((2, 1)) == {2}


def test_cycle_peaks_match_oracle():
    for n in range(7):
        for p in all_perms(n):
            assert cycle_peaks(p) == oracle_cycle_peaks(p)


def cut_at_left_to_right_maxima(word):
    """Split a word before each left-to-right maximum."""
    blocks, top = [], 0
    for v in word:
        if v > top:
            blocks.append([])
            top = v
        blocks[-1].append(v)
    return tuple(tuple(b) for b in blocks)


def test_standard_cycle_form_examples():
    # foata's word, cut before each left-to-right maximum, is the standard
    # cycle form of its input: each block a cycle, written max-first
    cases = [
        ((2, 6, 7, 9, 5, 3, 1, 8, 4), ((5,), (7, 1, 2, 6, 3), (8,), (9, 4))),
        ((1, 2, 3), ((1,), (2,), (3,))),
        ((2, 1), ((2, 1),)),
    ]
    for p, cycles in cases:
        assert cut_at_left_to_right_maxima(foata(p)) == cycles
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert p[a - 1] == b


def test_foata_examples():
    # standard cycle form (5)(7,1,2,6,3)(8)(9,4): max-first, by increasing maxima
    assert foata((2, 6, 7, 9, 5, 3, 1, 8, 4)) == (5, 7, 1, 2, 6, 3, 8, 9, 4)
    assert foata((3, 1, 2)) == (3, 2, 1)          # (3,2,1)
    assert foata((3, 4, 1, 2)) == (3, 1, 4, 2)    # (3,1)(4,2)
    assert foata((1, 2, 3)) == (1, 2, 3)
    assert foata((2, 1)) == (2, 1)


def test_foata_inverse_examples():
    assert foata_inverse((5, 7, 1, 2, 6, 3, 8, 9, 4)) == (2, 6, 7, 9, 5, 3, 1, 8, 4)
    assert foata_inverse((3, 2, 1)) == (3, 1, 2)
    assert foata_inverse((3, 1, 4, 2)) == (3, 4, 1, 2)
    assert foata_inverse((1, 2, 3)) == (1, 2, 3)
    assert foata_inverse((2, 1)) == (2, 1)


def test_foata_bijection_and_peak_transport():
    for n in range(8):
        seen = set()
        for p in all_perms(n):
            q = foata(p)
            seen.add(q)
            assert foata_inverse(q) == p
            assert foata(foata_inverse(p)) == p
            at_peaks = frozenset(q[i - 1] for i in left_peaks(q))
            assert at_peaks == cycle_peaks(p)
        assert len(seen) == math.factorial(n)


# --- vincular pattern counts -------------------------------------------------

def test_count_pat_31_2_examples():
    p = (4, 3, 1, 2, 9, 6, 8, 5, 7)
    assert count_pat_31_2_at(p, 2) == 1
    assert count_pat_31_2_at(p, 7) == 2
    assert count_pat_31_2_at((1, 2, 3), 2) == 0


def test_count_pat_2_31_examples():
    p = (4, 3, 1, 2, 9, 6, 8, 5, 7)
    assert count_pat_2_31_at(p, 6) == 1
    assert count_pat_2_31_at(p, 5) == 0
    assert count_pat_2_31_at((1, 2, 3), 1) == 0


def test_pattern_rc_duality():
    for n in range(7):
        for p in all_perms(n):
            rc = reverse_complement(p)
            for i in range(1, n + 1):
                assert count_pat_31_2_at(rc, n + 1 - i) == count_pat_2_31_at(p, i)


# --- text formats -------------------------------------------------------------

def test_perm_text_roundtrip():
    assert format_perm(()) == ""
    assert parse_perm("") == ()
    assert parse_perm("  ") == ()
    text = "5 7 1 2 6 3 8 9 4"
    assert format_perm(parse_perm(text)) == text
    with pytest.raises(ValueError):
        parse_perm("1 1")
    with pytest.raises(ValueError):
        parse_perm("0 1")


def test_signed_text_roundtrip():
    text = "2 -1 5 4 7 -6 -3"
    assert format_perm(parse_signed(text)) == text
    with pytest.raises(ValueError):
        parse_signed("1 -1")
    with pytest.raises(ValueError):
        parse_signed("x")


def test_marked_format():
    mp = MarkedPermutation((5, 7, 1, 2, 6, 3, 8, 9, 4), frozenset({7, 9}))
    assert format_marked(mp) == "5 7^ 1 2 6 3 8 9^ 4"


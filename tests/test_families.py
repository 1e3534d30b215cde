"""Unit tests for enumerators, validators and the sequence oracles."""

import itertools
import math

import pytest

from springerbij import errors, permcore
from springerbij.families import (
    FAMILIES,
    ThreeWIP,
    _in_text_order,
    enumerate_alternating,
    enumerate_laguerre,
    enumerate_lbp,
    enumerate_rcalt,
    enumerate_snakes,
    enumerate_wip3,
    euler_sequence,
    format_wip3,
    is_wip3,
    parse_wip3,
    springer_dp,
    springer_egf,
    springer_enumeration,
    validate_wip3,
)
from springerbij.paths import LabeledBallotPath, LaguerreHistory, format_path

SNAKES_3 = {
    (1, -2, 3), (1, -3, 2), (1, -3, -2),
    (2, 1, 3), (2, -1, 3), (2, -3, 1), (2, -3, -1),
    (3, 1, 2), (3, -1, 2), (3, -2, 1), (3, -2, -1),
}


def test_springer_egf_values():
    assert springer_egf(6).values == (1, 1, 3, 11, 57, 361, 2763)
    assert springer_egf(0).values == (1,)
    assert springer_egf(7).values[7] == 24611
    assert springer_egf(6).method == "egf"


def test_springer_methods_agree():
    assert springer_egf(9).values == springer_dp(9).values
    table = springer_enumeration(5)
    assert table.method == "enumeration"
    assert table.values == springer_egf(5).values


def test_euler_sequence_values():
    assert euler_sequence(6) == (1, 1, 1, 2, 5, 16, 61)
    assert euler_sequence(0) == (1,)
    assert euler_sequence(7)[7] == 272


def test_euler_matches_enumeration():
    for n in range(8):
        assert sum(1 for _ in enumerate_alternating(n)) == euler_sequence(n)[n]


def test_enumerate_snakes():
    assert set(enumerate_snakes(3)) == SNAKES_3
    assert list(enumerate_snakes(0)) == [()]
    assert sum(1 for _ in enumerate_snakes(4)) == 57
    assert set(enumerate_snakes(2)) == {(1, -2), (2, 1), (2, -1)}


def test_enumerate_wip3():
    assert sum(1 for _ in enumerate_wip3(2)) == 3
    assert list(enumerate_wip3(0)) == [ThreeWIP((), ())]
    assert set(enumerate_wip3(2)) == {
        ThreeWIP((1, 2), (1, 2)),
        ThreeWIP((1, 2), (2, 1)),
        ThreeWIP((2, 1), (1, 2)),
    }
    # membership of the length-9 worked example
    assert is_wip3((1, 5, 2, 6, 7, 3, 8, 9, 4), (2, 5, 6, 3, 1, 7, 8, 4, 9))


def test_enumerate_rcalt():
    assert list(enumerate_rcalt(1)) == [(2, 1)]
    assert set(enumerate_rcalt(2)) == {(2, 1, 4, 3), (3, 1, 4, 2), (4, 2, 3, 1)}
    assert sum(1 for _ in enumerate_rcalt(3)) == 11
    # brute-force cross-check against a filter of all permutations
    for n in range(4):
        brute = {
            p
            for p in itertools.permutations(range(1, 2 * n + 1))
            if permcore.is_alternating(p) and permcore.reverse_complement(p) == p
        }
        assert set(enumerate_rcalt(n)) == brute


def test_enumerate_lbp():
    assert [format_path(x) for x in enumerate_lbp(1)] == ["U;0"]
    assert {format_path(x) for x in enumerate_lbp(2)} == {"UU;0,0", "UU;0,1", "UD;0,0"}
    assert sum(1 for _ in enumerate_lbp(3)) == 11


def test_enumerate_laguerre():
    assert [format_path(x) for x in enumerate_laguerre(1)] == ["H;0"]
    assert {format_path(x) for x in enumerate_laguerre(2)} == {"HH;0,0", "UD;0,0"}
    for n in range(6):
        assert sum(1 for _ in enumerate_laguerre(n)) == math.factorial(n)


def test_enumerate_alternating():
    assert set(enumerate_alternating(3)) == {(2, 1, 3), (3, 1, 2)}
    assert list(enumerate_alternating(0)) == [()]
    assert sum(1 for _ in enumerate_alternating(6)) == 61


# the largest n checked per family; rcalt at n = 5 and altperm at n = 10
# reach the token 10, where text order and numeric order differ
DESK_N = {"snakes": 6, "wip3": 6, "rcalt": 5, "lbp": 6, "laguerre": 6, "altperm": 10}


def test_enumerators_emit_strictly_increasing_canonical_text():
    # strictly increasing text, the oracle's count and valid objects together
    # force equality with the family sorted by text
    for name, fam in FAMILIES.items():
        for n in range(DESK_N[name] + 1):
            previous = None
            count = 0
            for obj in fam.enumerate(n):
                text = fam.render(obj)
                assert previous is None or previous < text, (name, previous, text)
                fam.validate(obj)  # raises on a non-member
                previous = text
                count += 1
            assert count == fam.oracle(n), (name, n)


# (family, non-member, exception class) for each way a validator rejects
NON_MEMBERS = [
    ("snakes", (-1,), errors.NotASnake),
    ("snakes", (1, 2), errors.NotASnake),
    ("snakes", (3, -5), errors.NotASnake),          # down-up, not a signed permutation
    ("snakes", (1, -1), errors.NotASnake),
    ("rcalt", (2, 1, 3), errors.OddLength),
    ("rcalt", (1, 2, 3, 4), errors.NotAlternating),
    ("rcalt", (4, 1, 3, 2), errors.NotRcInvariant),
    ("rcalt", (4, 0, 5, 1), errors.ValidationError),  # rc-invariant, not a permutation
    ("altperm", (1, 2), errors.NotAlternating),
    ("altperm", (3, 1, 3), errors.ValidationError),
    ("wip3", ThreeWIP((2, 1), (2, 1)), ValueError),
    ("wip3", ThreeWIP((1, 2), (1,)), ValueError),
    ("lbp", LabeledBallotPath("UH", (0, 0)), errors.HorizontalStepPresent),
    ("lbp", LabeledBallotPath("UU", (0,)), errors.LengthMismatch),
    ("lbp", LabeledBallotPath("D", (0,)), errors.HeightBelowZero),
    ("lbp", LabeledBallotPath("UU", (0, 2)), errors.WeightOutOfRange),
    ("laguerre", LaguerreHistory("UX", (0, 0)), errors.ValidationError),
    ("laguerre", LaguerreHistory("UD", (0,)), errors.LengthMismatch),
    ("laguerre", LaguerreHistory("DU", (0, 0)), errors.HeightBelowZero),
    ("laguerre", LaguerreHistory("UU", (0, 0)), errors.NotClosed),
    ("laguerre", LaguerreHistory("UD", (0, 1)), errors.WeightOutOfRange),
    ("laguerre", LaguerreHistory("T", (0,)), errors.WeightOutOfRange),
]


@pytest.mark.parametrize("name, obj, exc", NON_MEMBERS)
def test_family_validators_reject_non_members(name, obj, exc):
    with pytest.raises(exc) as excinfo:
        FAMILIES[name].validate(obj)
    assert type(excinfo.value) is exc


def test_text_order_of_tokens():
    assert _in_text_order(range(11)) == [0, 1, 10, 2, 3, 4, 5, 6, 7, 8, 9]
    assert _in_text_order([-10, -2, -1, 1, 2, 10]) == [-1, -10, -2, 1, 10, 2]
    # a weight range reaching 10 (lbp and laguerre at n >= 11), and signed
    # tokens: the product of text-ordered ranges is in text order
    for values, sep in ((range(11), ","), ([*range(-10, 0), *range(1, 11)], " ")):
        pairs = itertools.product(_in_text_order(values), repeat=2)
        texts = [sep.join(map(str, pair)) for pair in pairs]
        assert all(a < b for a, b in zip(texts, texts[1:]))


def test_four_way_count_equality():
    for n in range(6):
        expected = springer_egf(n).values[n]
        assert sum(1 for _ in enumerate_snakes(n)) == expected
        assert sum(1 for _ in enumerate_wip3(n)) == expected
        assert sum(1 for _ in enumerate_rcalt(n)) == expected
        assert sum(1 for _ in enumerate_lbp(n)) == expected


def test_wip3_validation_and_text():
    wip = validate_wip3((1, 5, 2, 6, 7, 3, 8, 9, 4), (2, 5, 6, 3, 1, 7, 8, 4, 9))
    text = "1 5 2 6 7 3 8 9 4 / 2 5 6 3 1 7 8 4 9"
    assert format_wip3(wip) == text
    assert parse_wip3(text) == wip
    assert parse_wip3(format_wip3(ThreeWIP((), ()))) == ThreeWIP((), ())
    assert is_wip3((1, 2), (2, 1))          # maxima 2, 2
    assert is_wip3((2, 1), (1, 2))          # maxima 2, 2
    assert not is_wip3((2, 1), (2, 1))      # maxima 2, 1 decrease


def test_wip3_rejects():
    with pytest.raises(ValueError):
        parse_wip3("1 2 / 1")          # length mismatch
    with pytest.raises(ValueError):
        parse_wip3("2 1 / 2 1")        # maxima 2,1 decrease
    with pytest.raises(ValueError):
        parse_wip3("1 2")              # no separator
    with pytest.raises(ValueError):
        parse_wip3("1 1 / 1 2")        # sigma not a permutation

"""Unit tests for weighted lattice paths."""

import pytest

from springerbij.errors import (
    HeightBelowZero,
    HorizontalStepPresent,
    LengthMismatch,
    NotClosed,
    NotRcFixed,
    OddLength,
    ValidationError,
    WeightOutOfRange,
)
from springerbij.families import enumerate_laguerre, enumerate_lbp
from springerbij.paths import (
    LabeledBallotPath,
    LaguerreHistory,
    extend_to_rc_fixed,
    format_path,
    halve_rc_fixed,
    height_profile,
    history_rc,
    lbp_dp_counts,
    parse_labeled_ballot,
    parse_laguerre,
    parse_path_text,
    validate_labeled_ballot,
    validate_laguerre,
    wbar,
)

# the 14-step rc-fixed labeled Dyck path whose first half is UUUDDUU;0,0,1,2,0,0,0
FULL_14 = LaguerreHistory("UUUDDUUDDUUDDD", (0, 0, 1, 2, 0, 0, 0, 2, 1, 1, 0, 1, 1, 0))
HALF_7 = LabeledBallotPath("UUUDDUU", (0, 0, 1, 2, 0, 0, 0))


def oracle_heights(steps):
    # direct prefix counting, independently of the running-sum implementation
    return tuple(
        steps[:i].count("U") - steps[:i].count("D") for i in range(len(steps))
    )


def test_height_profile_examples():
    assert height_profile("UHTDUUHDD") == (0, 1, 1, 1, 0, 1, 2, 2, 1)
    assert height_profile("UUUDDUU") == (0, 1, 2, 3, 2, 1, 2)
    assert height_profile("") == ()


def test_height_profile_matches_prefix_counting():
    for n in range(6):
        for hw in enumerate_laguerre(n):
            assert height_profile(hw.steps) == oracle_heights(hw.steps)


def test_height_profile_rejects_dips_and_junk():
    with pytest.raises(HeightBelowZero):
        height_profile("UDD")
    with pytest.raises(HeightBelowZero):
        height_profile("D")
    with pytest.raises(ValidationError):
        height_profile("UXD")


def test_validate_labeled_ballot():
    assert validate_labeled_ballot("UUUDDUU", (0, 0, 1, 2, 0, 0, 0)) == HALF_7
    assert validate_labeled_ballot("UD", (0, 0)) == LabeledBallotPath("UD", (0, 0))
    assert validate_labeled_ballot("", ()) == LabeledBallotPath("", ())
    with pytest.raises(WeightOutOfRange) as excinfo:
        validate_labeled_ballot("U", (1,))
    assert excinfo.value.index == 1
    with pytest.raises(HorizontalStepPresent):
        validate_labeled_ballot("UHD", (0, 0, 0))
    with pytest.raises(LengthMismatch):
        validate_labeled_ballot("UU", (0,))
    with pytest.raises(WeightOutOfRange):
        validate_labeled_ballot("UD", (0, -1))


def test_validate_laguerre():
    hw = validate_laguerre("UHTDUUHDD", (0, 1, 0, 0, 0, 0, 2, 1, 0))
    assert hw.steps == "UHTDUUHDD"
    assert validate_laguerre("H", (0,)) == LaguerreHistory("H", (0,))
    assert validate_laguerre("", ()) == LaguerreHistory("", ())
    with pytest.raises(WeightOutOfRange) as excinfo:
        validate_laguerre("T", (0,))
    assert excinfo.value.index == 1
    with pytest.raises(NotClosed):
        validate_laguerre("U", (0,))
    with pytest.raises(LengthMismatch):
        validate_laguerre("HH", (0,))


@pytest.mark.parametrize("validate, steps, weights", [
    (validate_labeled_ballot, "UUD", (0, 1, 1)),
    (validate_labeled_ballot, "", ()),
    (validate_laguerre, "UHTD", (0, 1, 0, 0)),
])
def test_step_word_given_as_a_list_or_tuple_of_letters_gives_the_same_record(validate, steps, weights):
    # the record's step word is the letters joined, never the repr of a list
    want = validate(steps, weights)
    assert want.steps == steps
    assert validate(list(steps), weights) == validate(tuple(steps), weights) == want


def test_history_rc_examples():
    assert history_rc(LaguerreHistory("UD", (0, 0))) == LaguerreHistory("UD", (0, 0))
    # computed two independent ways: the indexwise formula below, and the image
    # of fz(reverse_complement(431296857)) in test_bijections
    hw = LaguerreHistory("UHTDUUHDD", (0, 1, 0, 0, 0, 0, 2, 1, 0))
    assert history_rc(hw) == LaguerreHistory("UUHDDUTHD", (0, 0, 0, 1, 0, 0, 0, 0, 0))
    assert history_rc(FULL_14) == FULL_14


def test_history_rc_is_involution():
    # the worked history is not fixed, and its image maps back to it
    hw = LaguerreHistory("UHTDUUHDD", (0, 1, 0, 0, 0, 0, 2, 1, 0))
    assert history_rc(hw) != hw
    assert history_rc(history_rc(hw)) == hw


def test_halve_rc_fixed():
    assert halve_rc_fixed(FULL_14) == HALF_7
    assert halve_rc_fixed(LaguerreHistory("UD", (0, 0))) == LabeledBallotPath("U", (0,))
    assert halve_rc_fixed(LaguerreHistory("", ())) == LabeledBallotPath("", ())
    with pytest.raises(HorizontalStepPresent):
        halve_rc_fixed(LaguerreHistory("UHHD", (0, 1, 1, 0)))
    with pytest.raises(OddLength):
        # hand-built, unvalidated: a genuine history of odd length needs level steps
        halve_rc_fixed(LaguerreHistory("UDU", (0, 0, 0)))
    with pytest.raises(NotRcFixed):
        halve_rc_fixed(LaguerreHistory("UUDD", (0, 1, 1, 0)))


def test_history_rc_and_halve_rc_fixed_name_an_open_path_not_closed():
    # exactly NotClosed: an open path checked as closed=False would raise nothing
    # (history_rc) or NotRcFixed (halve_rc_fixed)
    with pytest.raises(NotClosed) as excinfo:
        history_rc(LaguerreHistory("UU", (0, 1)))
    assert excinfo.type is NotClosed
    with pytest.raises(NotClosed) as excinfo:
        halve_rc_fixed(LaguerreHistory("UU", (0, 0)))
    assert excinfo.type is NotClosed


def test_extend_to_rc_fixed():
    assert extend_to_rc_fixed(LabeledBallotPath("U", (0,))) == LaguerreHistory("UD", (0, 0))
    assert extend_to_rc_fixed(HALF_7) == FULL_14
    assert extend_to_rc_fixed(LabeledBallotPath("UU", (0, 1))) == LaguerreHistory(
        "UUDD", (0, 1, 0, 0)
    )


def test_extend_halve_roundtrip():
    for n in range(7):
        for lbp in enumerate_lbp(n):
            hw = extend_to_rc_fixed(lbp)
            assert history_rc(hw) == hw
            assert halve_rc_fixed(hw) == lbp


def test_count_lbp_dp():
    assert lbp_dp_counts(0)[-1] == 1
    assert lbp_dp_counts(1)[-1] == 1
    assert lbp_dp_counts(3)[-1] == 11
    assert lbp_dp_counts(7)[-1] == 24611


def test_count_lbp_dp_matches_enumeration():
    for n in range(8):
        assert lbp_dp_counts(n)[-1] == sum(1 for _ in enumerate_lbp(n))


@pytest.mark.parametrize("fn, obj, error", [
    (wbar, LabeledBallotPath("U", (0, 5)), LengthMismatch),
    (history_rc, LaguerreHistory("UD", (0, 0, 7)), LengthMismatch),
    (history_rc, LaguerreHistory("UD", (0,)), LengthMismatch),
    (extend_to_rc_fixed, LabeledBallotPath("UH", (0, 0)), HorizontalStepPresent),
    (halve_rc_fixed, LaguerreHistory("UU", (0,)), LengthMismatch),
], ids=["wbar-extra-weight", "history_rc-extra-weight", "history_rc-missing-weight",
        "extend-level-step", "halve-missing-weight"])
def test_path_maps_reject_non_members(fn, obj, error):
    with pytest.raises(error):
        fn(obj)


def test_wbar_examples():
    assert wbar(LabeledBallotPath("U", (0,))) == LabeledBallotPath("U", (0,))
    assert wbar(HALF_7) == LabeledBallotPath("UUUDDUU", (0, 1, 1, 0, 1, 1, 2))
    assert wbar(LabeledBallotPath("UD", (0, 0))) == LabeledBallotPath("UD", (0, 0))


def test_wbar_is_involution():
    # wbar is the complement within the caps, so an involution
    assert wbar(HALF_7) != HALF_7
    assert wbar(wbar(HALF_7)) == HALF_7


def test_path_text_roundtrip():
    assert format_path(HALF_7) == "UUUDDUU;0,0,1,2,0,0,0"
    assert format_path(LabeledBallotPath("", ())) == ";"
    assert parse_labeled_ballot(";") == LabeledBallotPath("", ())
    assert parse_laguerre("UHTDUUHDD;0,1,0,0,0,0,2,1,0").weights == (0, 1, 0, 0, 0, 0, 2, 1, 0)
    assert parse_path_text("U;0") == ("U", (0,))
    with pytest.raises(ValidationError):
        parse_path_text("UD")
    with pytest.raises(ValueError):
        parse_path_text("UD;a,b")

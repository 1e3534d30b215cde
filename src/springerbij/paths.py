"""Lattice paths with per-step weights: labeled ballot paths and Laguerre histories.

A step word is a string over U (up), D (down), H (level) and T (the second
level color). The height of a step is the height at which it starts, so it
depends only on the steps before it. Weights are bounded by that height:
steps U and H at height h may carry 0..h, steps D and T may carry 0..h-1.

Labeled ballot paths use U/D only and may end anywhere at or above the axis;
Laguerre histories use all four letters and must end on the axis. Counting
is exact integer arithmetic throughout.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from operator import sub
from typing import Sequence

from .errors import (
    HeightBelowZero,
    HorizontalStepPresent,
    LengthMismatch,
    NotClosed,
    NotRcFixed,
    OddLength,
    ValidationError,
    WeightOutOfRange,
)
from .permcore import Record

BALLOT_ALPHABET = "UD"
MOTZKIN_ALPHABET = "UDHT"

# letter -> (rise, cap drop): a step that starts at height h ends at h + rise
# and carries a weight in 0..h - drop
STEP_RULES = {"U": (1, 0), "D": (-1, 1), "H": (0, 0), "T": (0, 1)}
_RULES = {a: {s: STEP_RULES[s] for s in a} for a in (BALLOT_ALPHABET, MOTZKIN_ALPHABET)}
_FLIP = str.maketrans("UD", "DU")


class LabeledBallotPath(Record, namedtuple("LabeledBallotPath", "steps weights")):
    """A U/D step word (a str) plus a tuple of one weight per step, within the height bounds."""

    __slots__ = ()


class LaguerreHistory(Record, namedtuple("LaguerreHistory", "steps weights")):
    """A closed two-colored Motzkin word (a str) plus a tuple of one weight per step."""

    __slots__ = ()


def height_profile(steps: str) -> tuple[int, ...]:
    """Height at which each step starts: h[i] = #U - #D among steps before i.

    Rejects words that dip below the axis.

    >>> height_profile("UHTDUUHDD")
    (0, 1, 1, 1, 0, 1, 2, 2, 1)
    """
    heights = []
    h = 0
    for i, s in enumerate(steps, start=1):
        if s not in STEP_RULES:
            raise ValidationError(f"unknown step letter {s!r} at step {i}")
        heights.append(h)
        h += STEP_RULES[s][0]
        if h < 0:
            raise HeightBelowZero(f"path dips below the axis after step {i}")
    return tuple(heights)


def _caps(steps: str, weights: Sequence[int], alphabet: str, closed: bool) -> list[int]:
    """Validate a weighted path over alphabet, ending on the axis if closed, and return
    each step's weight cap. Checks run in order: letters, lengths, axis, closure, weights;
    letters first for any step sequence, whose every item must be one letter of alphabet."""
    rules = _RULES[alphabet]  # the STEP_RULES of alphabet's letters
    if not set(steps).issubset(rules):  # then name the first letter outside alphabet
        for i, s in enumerate(steps, start=1):
            if s not in rules:
                if s in STEP_RULES:
                    raise HorizontalStepPresent(f"level step at position {i}")
                raise ValidationError(f"unknown step letter {s!r} at step {i}")
    if len(steps) != len(weights):
        raise LengthMismatch(f"{len(steps)} steps but {len(weights)} weights")
    caps = []
    h = bad = 0  # bad: the first step whose weight is out of range, raised after the closure check
    for s, w in zip(steps, weights):
        rise, drop = rules[s]
        caps.append(cap := h - drop)
        if not (isinstance(w, int) and 0 <= w <= cap) and not bad:  # fz_inverse indexes by weight
            bad = len(caps)
        h += rise
        if h < 0:
            raise HeightBelowZero(f"path dips below the axis after step {len(caps)}")
    if closed and h != 0:
        raise NotClosed(f"path ends at height {h}")
    if bad:
        raise WeightOutOfRange(bad, f"weight {weights[bad - 1]} at step {bad} outside 0..{caps[bad - 1]}")
    return caps


def _mirror(steps: str, weights: Sequence[int], caps: Sequence[int]) -> tuple[str, tuple[int, ...]]:
    """The word reversed with U/D swapped, each weight complemented within its cap."""
    return ("".join(reversed(steps)).translate(_FLIP),
            tuple(map(sub, reversed(caps), reversed(weights))))


def weight_caps(path: LabeledBallotPath | LaguerreHistory) -> list[int]:
    """The largest weight each step of a valid path admits: h for U and H, h-1 for D and T."""
    return _caps(path.steps, path.weights, MOTZKIN_ALPHABET, closed=False)


def validate_labeled_ballot(steps: str, weights: Sequence[int]) -> LabeledBallotPath:
    """Validate (ballot path, weights): U at height h carries 0..h, D carries 0..h-1."""
    _caps(steps, weights, BALLOT_ALPHABET, closed=False)
    return LabeledBallotPath("".join(steps), tuple(weights))  # _caps checked each letter


def validate_laguerre(steps: str, weights: Sequence[int]) -> LaguerreHistory:
    """Validate a history: closed path, U/H carry 0..h, D/T carry 0..h-1.

    A T step on the axis is always rejected (its bound is h-1 = -1).
    """
    _caps(steps, weights, MOTZKIN_ALPHABET, closed=True)
    return LaguerreHistory("".join(steps), tuple(weights))


def history_rc(hw: LaguerreHistory) -> LaguerreHistory:
    """Reverse the word, swap U/D, and complement each weight within its range.

    An involution on histories; it tracks reverse-complement of permutations
    through the permutation-to-history map.

    >>> history_rc(LaguerreHistory("UD", (0, 0)))
    LaguerreHistory(steps='UD', weights=(0, 0))
    """
    # the mirror keeps every cap: U at h and D from h+1 are both capped at h,
    # D at h and U from h-1 at h-1, and H and T keep their heights
    caps = _caps(hw.steps, hw.weights, MOTZKIN_ALPHABET, closed=True)
    return LaguerreHistory(*_mirror(hw.steps, hw.weights, caps))


def halve_rc_fixed(hw: LaguerreHistory) -> LabeledBallotPath:
    """First half of a labeled Dyck path fixed by history_rc.

    The input must be of even length, level-step free, and equal to its own
    reverse-complement; the first half then determines the whole object.
    """
    if len(hw.steps) % 2:
        raise OddLength(f"length {len(hw.steps)} is odd")
    caps = _caps(hw.steps, hw.weights, BALLOT_ALPHABET, closed=True)
    if _mirror(hw.steps, hw.weights, caps) != (hw.steps, hw.weights):
        raise NotRcFixed("history is not fixed by reverse-complement")
    n = len(hw.steps) // 2
    return LabeledBallotPath(hw.steps[:n], hw.weights[:n])  # a prefix keeps heights and caps


def extend_to_rc_fixed(lbp: LabeledBallotPath) -> LaguerreHistory:
    """The unique rc-fixed labeled Dyck path whose first half is the given path.

    The second half mirrors the first with U/D swapped; the mirrored weight of
    step i is the complement of weight i within its range. Only the path is checked.
    """
    # The checked path proves the result closed and rc-fixed: the tail retraces the path's
    # heights back to the axis and keeps each cap (see history_rc), so each complemented weight
    # is in range; history_rc, the same mirror on the whole word, swaps the path and the tail.
    caps = _caps(lbp.steps, lbp.weights, BALLOT_ALPHABET, closed=False)
    tail_steps, tail_weights = _mirror(lbp.steps, lbp.weights, caps)
    return LaguerreHistory(lbp.steps + tail_steps, lbp.weights + tail_weights)


def lbp_dp_counts(m: int) -> tuple[int, ...]:
    """Weighted counts of ballot paths of n = 0..max(m, 0) steps, U from height h with h+1
    labelings and D with h: one exact big-integer dynamic program over heights, the sum of
    each layer, in O(m^2) steps where a run per n would take O(m^3). Agrees with exhaustive
    generation and with the EGF recurrence for Springer numbers.

    >>> lbp_dp_counts(3)
    (1, 1, 3, 11)
    """
    layer, counts = {0: 1}, [1]
    for _ in range(m):
        nxt: dict[int, int] = {}
        for h, ways in layer.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + ways * (h + 1)
            if h:
                nxt[h - 1] = nxt.get(h - 1, 0) + ways * h
        layer = nxt
        counts.append(sum(layer.values()))
    return tuple(counts)


def wbar(lbp: LabeledBallotPath) -> LabeledBallotPath:
    """Complement every weight within its admissible range (an involution)."""
    # 0 <= w <= c exactly when 0 <= c - w <= c: the image needs no second check
    caps = _caps(lbp.steps, lbp.weights, BALLOT_ALPHABET, closed=False)
    return LabeledBallotPath(lbp.steps, tuple(map(sub, caps, lbp.weights)))


# ---------------------------------------------------------------------------
# text formats

@functools.lru_cache(maxsize=64)  # bounded: map lines may have any length
def _template(n: int) -> str:
    """The %-template of an n-step path's text: the step word, ';', n '%d' joined by ','."""
    return "%s;" + ",".join(["%d"] * n)


def format_path(obj: LabeledBallotPath | LaguerreHistory) -> str:
    """Wire format: step word, ';', comma-separated weights. Empty object is ';'.

    >>> format_path(LabeledBallotPath("UUUDDUU", (0, 0, 1, 2, 0, 0, 0)))
    'UUUDDUU;0,0,1,2,0,0,0'
    """
    return _template(len(obj.weights)) % (obj.steps, *obj.weights)


def parse_path_text(text: str) -> tuple[str, tuple[int, ...]]:
    """Split the wire format into (step word, weights) without validating bounds."""
    if text.count(";") != 1:
        raise ValidationError(f"expected exactly one ';' in {text!r}")
    word, _, wtxt = text.partition(";")
    weights = tuple(map(int, wtxt.split(","))) if wtxt else ()
    return word, weights


def parse_labeled_ballot(text: str) -> LabeledBallotPath:
    return validate_labeled_ballot(*parse_path_text(text))


def parse_laguerre(text: str) -> LaguerreHistory:
    return validate_laguerre(*parse_path_text(text))

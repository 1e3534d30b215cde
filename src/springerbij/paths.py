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

import dataclasses
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

BALLOT_ALPHABET = "UD"
MOTZKIN_ALPHABET = "UDHT"

_RISE = {"U": 1, "D": -1, "H": 0, "T": 0}
_FLIP = {"U": "D", "D": "U", "H": "H", "T": "T"}


@dataclasses.dataclass(frozen=True)
class LabeledBallotPath:
    """A U/D step word plus one weight per step, within the height bounds."""

    steps: str
    weights: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class LaguerreHistory:
    """A closed two-colored Motzkin word plus one weight per step."""

    steps: str
    weights: tuple[int, ...]


def height_profile(steps: str) -> tuple[int, ...]:
    """Height at which each step starts: h[i] = #U - #D among steps before i.

    Rejects words that dip below the axis.

    >>> height_profile("UHTDUUHDD")
    (0, 1, 1, 1, 0, 1, 2, 2, 1)
    """
    heights = []
    h = 0
    for i, s in enumerate(steps, start=1):
        if s not in _RISE:
            raise ValidationError(f"unknown step letter {s!r} at step {i}")
        heights.append(h)
        h += _RISE[s]
        if h < 0:
            raise HeightBelowZero(f"path dips below the axis after step {i}")
    return tuple(heights)


def _weight_cap(step: str, height: int) -> int:
    return height if step in ("U", "H") else height - 1


def _heights(steps: str, weights: Sequence[int]) -> tuple[int, ...]:
    """The height profile, once the word and the weights have equal length."""
    if len(steps) != len(weights):
        raise LengthMismatch(f"{len(steps)} steps but {len(weights)} weights")
    return height_profile(steps)


def _check_weights(steps: str, weights: Sequence[int], heights: Sequence[int]) -> None:
    for i, (s, w, h) in enumerate(zip(steps, weights, heights), start=1):
        cap = _weight_cap(s, h)
        if not 0 <= w <= cap:
            raise WeightOutOfRange(i, f"weight {w} at step {i} outside 0..{cap}")


def validate_labeled_ballot(steps: str, weights: Sequence[int]) -> LabeledBallotPath:
    """Validate (ballot path, weights): U at height h carries 0..h, D carries 0..h-1."""
    for i, s in enumerate(steps, start=1):
        if s in ("H", "T"):
            raise HorizontalStepPresent(f"level step at position {i}")
        if s not in BALLOT_ALPHABET:
            raise ValidationError(f"unknown step letter {s!r} at step {i}")
    _check_weights(steps, weights, _heights(steps, weights))
    return LabeledBallotPath(str(steps), tuple(weights))


def validate_laguerre(steps: str, weights: Sequence[int]) -> LaguerreHistory:
    """Validate a history: closed path, U/H carry 0..h, D/T carry 0..h-1.

    A T step on the axis is always rejected (its bound is h-1 = -1).
    """
    for i, s in enumerate(steps, start=1):
        if s not in MOTZKIN_ALPHABET:
            raise ValidationError(f"unknown step letter {s!r} at step {i}")
    heights = _heights(steps, weights)
    final = heights[-1] + _RISE[steps[-1]] if steps else 0
    if final != 0:
        raise NotClosed(f"path ends at height {final}")
    _check_weights(steps, weights, heights)
    return LaguerreHistory(str(steps), tuple(weights))


def history_rc(hw: LaguerreHistory) -> LaguerreHistory:
    """Reverse the word, swap U/D, and complement each weight within its range.

    An involution on histories; it tracks reverse-complement of permutations
    through the permutation-to-history map.

    >>> history_rc(LaguerreHistory("UD", (0, 0)))
    LaguerreHistory(steps='UD', weights=(0, 0))
    """
    n = len(hw.steps)
    heights = height_profile(hw.steps)
    steps = [""] * n
    weights = [0] * n
    for i in range(n):
        s = hw.steps[i]
        steps[n - 1 - i] = _FLIP[s]
        weights[n - 1 - i] = _weight_cap(s, heights[i]) - hw.weights[i]
    return validate_laguerre("".join(steps), weights)


def halve_rc_fixed(hw: LaguerreHistory) -> LabeledBallotPath:
    """First half of a labeled Dyck path fixed by history_rc.

    The input must be level-step free, of even length, and equal to its own
    reverse-complement; the first half then determines the whole object.
    """
    for i, s in enumerate(hw.steps, start=1):
        if s in ("H", "T"):
            raise HorizontalStepPresent(f"level step at position {i}")
    if len(hw.steps) % 2:
        raise OddLength(f"length {len(hw.steps)} is odd")
    if history_rc(hw) != hw:
        raise NotRcFixed("history is not fixed by reverse-complement")
    n = len(hw.steps) // 2
    return validate_labeled_ballot(hw.steps[:n], hw.weights[:n])


def extend_to_rc_fixed(lbp: LabeledBallotPath) -> LaguerreHistory:
    """The unique rc-fixed labeled Dyck path whose first half is the given path.

    The second half mirrors the first with U/D swapped; the mirrored weight of
    step i is the complement of weight i within its range. The result always
    ends on the axis and is fixed by history_rc.
    """
    n = len(lbp.steps)
    heights = height_profile(lbp.steps)
    tail_steps = "".join(_FLIP[s] for s in reversed(lbp.steps))
    tail_weights = tuple(
        _weight_cap(lbp.steps[i], heights[i]) - lbp.weights[i]
        for i in reversed(range(n))
    )
    hw = validate_laguerre(lbp.steps + tail_steps, lbp.weights + tail_weights)
    assert history_rc(hw) == hw
    return hw


def count_lbp_dp(n: int) -> int:
    """Weighted count of ballot paths: U from height h has h+1 labelings, D has h.

    Exact big-integer dynamic program over heights; agrees with exhaustive
    generation and with the EGF recurrence for Springer numbers.

    >>> count_lbp_dp(3)
    11
    """
    layer = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for h, ways in layer.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + ways * (h + 1)
            if h:
                nxt[h - 1] = nxt.get(h - 1, 0) + ways * h
        layer = nxt
    return sum(layer.values())


def wbar(lbp: LabeledBallotPath) -> LabeledBallotPath:
    """Complement every weight within its admissible range (an involution)."""
    heights = height_profile(lbp.steps)
    new = tuple(
        _weight_cap(s, h) - w for s, w, h in zip(lbp.steps, lbp.weights, heights)
    )
    return validate_labeled_ballot(lbp.steps, new)


# ---------------------------------------------------------------------------
# text formats

def format_path(obj: LabeledBallotPath | LaguerreHistory) -> str:
    """Wire format: step word, ';', comma-separated weights. Empty object is ';'.

    >>> format_path(LabeledBallotPath("UUUDDUU", (0, 0, 1, 2, 0, 0, 0)))
    'UUUDDUU;0,0,1,2,0,0,0'
    """
    return obj.steps + ";" + ",".join(map(str, obj.weights))


def parse_path_text(text: str) -> tuple[str, tuple[int, ...]]:
    """Split the wire format into (step word, weights) without validating bounds."""
    if text.count(";") != 1:
        raise ValidationError(f"expected exactly one ';' in {text!r}")
    word, _, wtxt = text.partition(";")
    weights = tuple(int(tok) for tok in wtxt.split(",")) if wtxt else ()
    return word, weights


def parse_labeled_ballot(text: str) -> LabeledBallotPath:
    return validate_labeled_ballot(*parse_path_text(text))


def parse_laguerre(text: str) -> LaguerreHistory:
    return validate_laguerre(*parse_path_text(text))

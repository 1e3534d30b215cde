"""Permutations and signed permutations in one-line notation.

A permutation is a tuple of the values 1..n; a signed permutation is a tuple
of nonzero integers whose absolute values form a permutation. All positions
in documented statistics are 1-based, matching the text formats. Boundary
comparisons use the conventions p[0] = 0 and p[n+1] = +infinity. left_peaks and
right_valleys realize them by their comparisons alone.

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import chain, repeat
from operator import gt, lt, sub
from typing import Sequence


def is_permutation(word: Sequence[int]) -> bool:
    """Check that word is a rearrangement of 1..n.

    >>> [is_permutation(w) for w in [(), (1,), (2, 1), (2, 2), (0, 1)]]
    [True, True, True, False, False]
    """
    n = len(word)
    seen = [False] * (n + 1)
    for v in word:
        if not 1 <= v <= n or seen[v]:
            return False
        seen[v] = True
    return True


def is_signed_permutation(word: Sequence[int]) -> bool:
    """Check that the absolute values form a permutation (so no entry is 0)."""
    return is_permutation(list(map(abs, word)))


def invert(perm: Sequence[int]) -> tuple[int, ...]:
    """The inverse permutation q, with q[p[i]] = i (1-based); other words raise ValueError.

    >>> invert((2, 6, 7, 9, 5, 3, 1, 8, 4))
    (7, 1, 6, 9, 5, 2, 3, 8, 4)
    >>> invert(())
    ()
    """
    inv = [0] * len(perm)
    try:
        for pos, v in enumerate(perm, start=1):
            inv[v - 1] = pos
    except IndexError:  # an entry above n, or below 1 - n
        raise ValueError(f"not a permutation: {tuple(perm)}") from None
    if 0 in inv or inv and min(perm) < 1:  # entries in 1..n fill every slot unless one repeats
        raise ValueError(f"not a permutation: {tuple(perm)}")
    return tuple(inv)


def reverse_complement(perm: Sequence[int]) -> tuple[int, ...]:
    """Reverse then complement: entry i of the result is n+1 - p[n+1-i].

    An involution; fixed points are the rc-invariant permutations.

    >>> reverse_complement((4, 1, 3, 5, 2))
    (4, 1, 3, 5, 2)
    """
    return tuple(map(sub, repeat(len(perm) + 1), reversed(perm)))


def is_alternating(perm: Sequence[int]) -> bool:
    """Down-up test: p1 > p2 < p3 > p4 < ... (vacuously true for n <= 1), signed entries too."""
    return all(map(gt, perm[0::2], perm[1::2])) and all(map(lt, perm[1::2], perm[2::2]))


def is_snake(signed: Sequence[int]) -> bool:
    """First entry positive and the signed entries run down-up.

    >>> is_snake((2, -1, 5, 4, 7, -6, -3))
    True
    >>> is_snake((-1, 2, -3))
    False
    """
    if len(signed) == 0:
        return True
    return signed[0] > 0 and is_alternating(signed)


def left_peaks(perm: Sequence[int]) -> tuple[int, ...]:
    """Positions i with p[i-1] < p[i] > p[i+1] under p[0] = 0, p[n+1] = +inf.

    The +inf sentinel means position n is never a left peak; the 0 sentinel
    means position 1 qualifies whenever p[1] > p[2].

    >>> left_peaks((5, 7, 1, 2, 6, 3, 8, 9, 4))
    (2, 5, 8)
    >>> left_peaks((2, 1))
    (1,)
    """
    peaks = []
    prev, rose = -math.inf, False
    for i, v in enumerate(perm):  # prev = p[i], v = p[i+1]; rose: p[i-1] < p[i], true at i = 1
        if rose and prev > v:
            peaks.append(i)
        prev, rose = v, prev < v
    return tuple(peaks)


def right_valleys(perm: Sequence[int]) -> tuple[int, ...]:
    """Positions i with p[i-1] > p[i] < p[i+1], same sentinels as left_peaks.

    Position 1 never qualifies, position n does whenever p[n-1] > p[n].

    >>> right_valleys((5, 7, 1, 2, 6, 3, 8, 9, 4))
    (3, 6, 9)
    """
    valleys = []
    prev, fell = -math.inf, False
    for i, v in enumerate(perm):  # prev = p[i], v = p[i+1]; fell: p[i-1] > p[i], false at i = 1
        if fell and prev < v:
            valleys.append(i)
        prev, fell = v, prev > v
    if fell:
        valleys.append(len(perm))
    return tuple(valleys)


def cycle_peaks(perm: Sequence[int]) -> frozenset[int]:
    """Values k whose two cycle neighbours are both smaller: p^-1[k] < k > p[k].

    Fixed points never qualify, so k ranges over 2..n. Other words raise ValueError.

    >>> sorted(cycle_peaks((2, 6, 7, 9, 5, 3, 1, 8, 4)))
    [6, 7, 9]
    """
    inv = invert(perm)
    return frozenset(
        k for k in range(2, len(perm) + 1) if inv[k - 1] < k and perm[k - 1] < k
    )


def foata(perm: Sequence[int]) -> tuple[int, ...]:
    """Erase the parentheses of the standard cycle form (max-first cycles by increasing maxima).

    A bijection on permutations of n (other words raise ValueError) that sends
    cycle peaks to the values at left peaks. Counting down from n, each unseen
    value is its cycle's maximum, so walks come out max-first, by falling maxima.

    >>> foata((2, 6, 7, 9, 5, 3, 1, 8, 4))
    (5, 7, 1, 2, 6, 3, 8, 9, 4)
    """
    n = len(perm)
    seen = [False] * (n + 1)
    walks = []
    for top in range(n, 0, -1):
        if seen[top]:
            continue
        walk, v = [], top
        while 0 < v <= n and not seen[v]:  # a word that is no permutation may leave 1..n
            seen[v] = True
            walk.append(v)
            v = perm[v - 1]
        if v != top:  # all walks close at their tops exactly when perm is a permutation
            raise ValueError(f"not a permutation: {tuple(perm)}")
        walks.append(walk)
    return tuple(chain.from_iterable(reversed(walks)))


def foata_inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """Read the word as cycles, each opened by a left-to-right maximum.

    The cycle heads of a standard cycle form are exactly the left-to-right
    maxima of its concatenation, so this inverts foata: each entry maps to the
    next, the last of a cycle to its head. Non-permutations raise ValueError.

    >>> foata_inverse((5, 7, 1, 2, 6, 3, 8, 9, 4))
    (2, 6, 7, 9, 5, 3, 1, 8, 4)
    """
    n = len(perm)
    out = [0] * (n + 1)  # out[0] takes the link into the first entry
    head = prev = 0
    for v in perm:
        if not 0 < v <= n:
            raise ValueError(f"not a permutation: {tuple(perm)}")
        if v > head:
            out[prev] = head
            head = v
        else:
            out[prev] = v
        prev = v
    out[prev] = head
    if 0 in out[1:]:  # a value of 1..n that perm misses, as it repeats another
        raise ValueError(f"not a permutation: {tuple(perm)}")
    return tuple(out[1:])


def count_pat_31_2_at(perm: Sequence[int], value: int) -> int:
    """Adjacent descents strictly left of value's position that straddle it.

    Counts positions k < pos(value) with p[k] < value < p[k-1]; the p[0] = 0
    convention makes k = 1 vacuous.

    >>> count_pat_31_2_at((4, 3, 1, 2, 9, 6, 8, 5, 7), 7)
    2
    """
    count, prev = 0, value  # k = 1 never counts
    for v in perm:
        if v == value:
            return count
        if v < value < prev:
            count += 1
        prev = v
    raise ValueError(f"{value!r} is not in list")  # the message of list.index


def count_pat_2_31_at(perm: Sequence[int], value: int) -> int:
    """Adjacent descents strictly right of value's position that straddle it.

    Counts positions k > pos(value) with p[k+1] < value < p[k]; a pattern
    needs k+1 <= n, which the p[n+1] = +inf convention enforces by itself.

    >>> count_pat_2_31_at((4, 3, 1, 2, 9, 6, 8, 5, 7), 6)
    1
    """
    values = iter(perm)
    if value not in values:  # the test consumes values up to value's first position
        raise ValueError(f"{value!r} is not in list")  # the message of list.index
    count, prev = 0, value  # the pair at value's own position never counts
    for v in values:
        if v < value < prev:
            count += 1
        prev = v
    return count


class Record(tuple):
    """Base of the value records, named tuples: a record iterates, unpacks and sorts
    as the tuple of its fields, but equals only a record of its own class."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other


class MarkedPermutation(Record, namedtuple("MarkedPermutation", "perm marks")):
    """A permutation (a tuple) with a frozenset of marked values.

    Marks travel with values, not positions, which is what lets them survive
    the trip between cycle form and one-line form.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# text formats (bit-exact wire formats used by the CLI)

@functools.lru_cache(maxsize=64)  # bounded: map lines may have any length
def perm_template(n: int) -> str:
    """The %-template of an n-entry permutation's text: n '%d' joined by ' '."""
    return " ".join(["%d"] * n)


def format_perm(perm: Sequence[int]) -> str:
    """Space-separated decimals, with a leading '-' on negative entries; the empty
    permutation is the empty string. Also the text of signed permutations."""
    return perm_template(len(perm)) % tuple(perm)


def read_perm(text: str) -> tuple[int, ...]:
    """Space-separated integers, unchecked: what parse_perm and parse_signed validate."""
    return tuple(map(int, text.split()))


def parse_perm(text: str) -> tuple[int, ...]:
    """Read space-separated values and validate them as a permutation."""
    if not is_permutation(values := read_perm(text)):
        raise ValueError(f"not a permutation: {text!r}")
    return values


def parse_signed(text: str) -> tuple[int, ...]:
    """Read space-separated values and validate them as a signed permutation."""
    if not is_signed_permutation(values := read_perm(text)):
        raise ValueError(f"not a signed permutation: {text!r}")
    return values


def format_marked(mp: MarkedPermutation) -> str:
    """Debug format: each marked value is suffixed with '^'.

    >>> format_marked(MarkedPermutation((5, 7, 1, 2, 6, 3, 8, 9, 4), frozenset({7, 9})))
    '5 7^ 1 2 6 3 8 9^ 4'
    """
    return " ".join(f"{v}^" if v in mp.marks else str(v) for v in mp.perm)

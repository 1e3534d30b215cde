"""Permutations and signed permutations in one-line notation.

A permutation is a tuple of the values 1..n; a signed permutation is a tuple
of nonzero integers whose absolute values form a permutation. All positions
in documented statistics are 1-based, matching the text formats. Boundary
comparisons use the conventions p[0] = 0 and p[n+1] = +infinity, realized by
guarded comparisons rather than sentinel values.

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import dataclasses
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
    return is_permutation([abs(v) for v in word])


def invert(perm: Sequence[int]) -> tuple[int, ...]:
    """The inverse permutation q, with q[p[i]] = i (1-based).

    >>> invert((2, 6, 7, 9, 5, 3, 1, 8, 4))
    (7, 1, 6, 9, 5, 2, 3, 8, 4)
    >>> invert(())
    ()
    """
    inv = [0] * len(perm)
    for pos, v in enumerate(perm, start=1):
        inv[v - 1] = pos
    return tuple(inv)


def reverse_complement(perm: Sequence[int]) -> tuple[int, ...]:
    """Reverse then complement: entry i of the result is n+1 - p[n+1-i].

    An involution; fixed points are the rc-invariant permutations.

    >>> reverse_complement((4, 1, 3, 5, 2))
    (4, 1, 3, 5, 2)
    """
    n = len(perm)
    return tuple(n + 1 - v for v in reversed(perm))


def _is_down_up(seq: Sequence[int]) -> bool:
    for i in range(len(seq) - 1):
        if i % 2 == 0:
            if seq[i] <= seq[i + 1]:
                return False
        elif seq[i] >= seq[i + 1]:
            return False
    return True


def is_alternating(perm: Sequence[int]) -> bool:
    """Down-up test: p1 > p2 < p3 > p4 < ... (vacuously true for n <= 1)."""
    return _is_down_up(perm)


def is_snake(signed: Sequence[int]) -> bool:
    """First entry positive and the signed entries run down-up.

    >>> is_snake((2, -1, 5, 4, 7, -6, -3))
    True
    >>> is_snake((-1, 2, -3))
    False
    """
    if len(signed) == 0:
        return True
    return signed[0] > 0 and _is_down_up(signed)


def left_peaks(perm: Sequence[int]) -> tuple[int, ...]:
    """Positions i with p[i-1] < p[i] > p[i+1] under p[0] = 0, p[n+1] = +inf.

    The +inf sentinel means position n is never a left peak; the 0 sentinel
    means position 1 qualifies whenever p[1] > p[2].

    >>> left_peaks((5, 7, 1, 2, 6, 3, 8, 9, 4))
    (2, 5, 8)
    >>> left_peaks((2, 1))
    (1,)
    """
    n = len(perm)
    return tuple(
        i + 1
        for i in range(n)
        if (i == 0 or perm[i - 1] < perm[i]) and i + 1 < n and perm[i] > perm[i + 1]
    )


def right_valleys(perm: Sequence[int]) -> tuple[int, ...]:
    """Positions i with p[i-1] > p[i] < p[i+1], same sentinels as left_peaks.

    Position 1 never qualifies, position n does whenever p[n-1] > p[n].

    >>> right_valleys((5, 7, 1, 2, 6, 3, 8, 9, 4))
    (3, 6, 9)
    """
    n = len(perm)
    return tuple(
        i + 1
        for i in range(n)
        if i > 0 and perm[i - 1] > perm[i] and (i + 1 == n or perm[i] < perm[i + 1])
    )


def cycle_peaks(perm: Sequence[int]) -> frozenset[int]:
    """Values k whose two cycle neighbours are both smaller: p^-1[k] < k > p[k].

    Fixed points never qualify, so k ranges over 2..n.

    >>> sorted(cycle_peaks((2, 6, 7, 9, 5, 3, 1, 8, 4)))
    [6, 7, 9]
    """
    inv = invert(perm)
    return frozenset(
        k for k in range(2, len(perm) + 1) if inv[k - 1] < k and perm[k - 1] < k
    )


@dataclasses.dataclass(frozen=True)
class CycleForm:
    """A cycle decomposition; standard means max-first cycles listed by increasing maxima."""

    cycles: tuple[tuple[int, ...], ...]
    standard: bool = True


def standard_cycle_form(perm: Sequence[int]) -> CycleForm:
    """Cycle decomposition, each cycle rotated so its maximum leads, cycles by increasing maxima.

    >>> standard_cycle_form((2, 6, 7, 9, 5, 3, 1, 8, 4)).cycles
    ((5,), (7, 1, 2, 6, 3), (8,), (9, 4))
    """
    n = len(perm)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = perm[v - 1]
        top = cyc.index(max(cyc))
        cycles.append(tuple(cyc[top:] + cyc[:top]))
    cycles.sort(key=lambda c: c[0])
    return CycleForm(tuple(cycles), standard=True)


def permutation_from_cycles(cycles: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """Rebuild one-line notation from disjoint cycles read as value -> next value."""
    out = [0] * n
    for cyc in cycles:
        for i, a in enumerate(cyc):
            out[a - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def foata(perm: Sequence[int]) -> tuple[int, ...]:
    """Erase the parentheses of the standard cycle form.

    A bijection on permutations of n; it sends the cycle peaks of the input to
    the values sitting at the left-peak positions of the output.

    >>> foata((2, 6, 7, 9, 5, 3, 1, 8, 4))
    (5, 7, 1, 2, 6, 3, 8, 9, 4)
    """
    out: list[int] = []
    for cyc in standard_cycle_form(perm).cycles:
        out.extend(cyc)
    return tuple(out)


def foata_inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """Cut before each left-to-right maximum and read the pieces as cycles.

    The cycle heads of a standard cycle form are exactly the left-to-right
    maxima of its concatenation, so this inverts foata.

    >>> foata_inverse((5, 7, 1, 2, 6, 3, 8, 9, 4))
    (2, 6, 7, 9, 5, 3, 1, 8, 4)
    """
    pieces: list[list[int]] = []
    best = 0
    for v in perm:
        if v > best:
            pieces.append([v])
            best = v
        else:
            pieces[-1].append(v)
    return permutation_from_cycles(pieces, len(perm))


def count_pat_31_2_at(perm: Sequence[int], value: int) -> int:
    """Adjacent descents strictly left of value's position that straddle it.

    Counts positions k < pos(value) with p[k] < value < p[k-1]; the p[0] = 0
    convention makes k = 1 vacuous.

    >>> count_pat_31_2_at((4, 3, 1, 2, 9, 6, 8, 5, 7), 7)
    2
    """
    j = list(perm).index(value)
    return sum(1 for k in range(1, j) if perm[k] < value < perm[k - 1])


def count_pat_2_31_at(perm: Sequence[int], value: int) -> int:
    """Adjacent descents strictly right of value's position that straddle it.

    Counts positions k > pos(value) with p[k+1] < value < p[k]; a pattern
    needs k+1 <= n, which the p[n+1] = +inf convention enforces by itself.

    >>> count_pat_2_31_at((4, 3, 1, 2, 9, 6, 8, 5, 7), 6)
    1
    """
    j = list(perm).index(value)
    n = len(perm)
    return sum(1 for k in range(j + 1, n - 1) if perm[k + 1] < value < perm[k])


@dataclasses.dataclass(frozen=True)
class MarkedPermutation:
    """A permutation with a set of marked values.

    Marks travel with values, not positions, which is what lets them survive
    the trip between cycle form and one-line form.
    """

    perm: tuple[int, ...]
    marks: frozenset[int]


# ---------------------------------------------------------------------------
# text formats (bit-exact wire formats used by the CLI)

def format_perm(perm: Sequence[int]) -> str:
    """Space-separated decimal values; the empty permutation is the empty string."""
    return " ".join(map(str, perm))


def parse_perm(text: str) -> tuple[int, ...]:
    """Parse space-separated values and validate them as a permutation."""
    values = tuple(int(tok) for tok in text.split())
    if not is_permutation(values):
        raise ValueError(f"not a permutation: {text!r}")
    return values


def format_signed(signed: Sequence[int]) -> str:
    """Space-separated decimals with a leading '-' on negative entries."""
    return " ".join(map(str, signed))


def parse_signed(text: str) -> tuple[int, ...]:
    """Parse space-separated values and validate them as a signed permutation."""
    values = tuple(int(tok) for tok in text.split())
    if not is_signed_permutation(values):
        raise ValueError(f"not a signed permutation: {text!r}")
    return values


def format_marked(mp: MarkedPermutation) -> str:
    """Debug format: each marked value is suffixed with '^'.

    >>> format_marked(MarkedPermutation((5, 7, 1, 2, 6, 3, 8, 9, 4), frozenset({7, 9})))
    '5 7^ 1 2 6 3 8 9^ 4'
    """
    return " ".join(f"{v}^" if v in mp.marks else str(v) for v in mp.perm)


def format_cycle_form(cf: CycleForm) -> str:
    """Debug format: parenthesized comma-separated cycles.

    >>> format_cycle_form(standard_cycle_form((2, 6, 7, 9, 5, 3, 1, 8, 4)))
    '(5)(7,1,2,6,3)(8)(9,4)'
    """
    return "".join("(" + ",".join(map(str, cyc)) + ")" for cyc in cf.cycles)

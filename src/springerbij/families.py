"""Enumerators, validators and counting oracles for the combinatorial families.

The six families share one counting story: snakes, weakly increasing
3-dimensional permutations, rc-invariant alternating permutations and labeled
ballot paths are all counted by the Springer numbers; Laguerre histories are
counted by n!; alternating permutations by the Euler numbers.

Each family has one backtracking generator, with family-specific pruning,
that yields its objects in strictly increasing order of their canonical
text straight from the search: nothing is collected or sorted, and the
working memory depends on n only (O(n), or O(n^2) for the weight ranges of
the path families). The order rests on one rule. All objects of one size
render to the same number of tokens (decimals, or the letters of a step
word of fixed length), and the separators that end a token, ' ' and ',',
sort below '-' and the digits; ';' and '/' sit at fixed places (after the
step word, after the ' ' that ends sigma) and never decide a comparison.
So text order is lexicographic order of the token sequence with tokens
compared as strings (-1 < -2 < 1 < 10 < 2, D < H < T < U), and a search
that fills positions in text order and tries each position's candidates
in that order yields text order (Knuth, TAOCP 4A, 7.2.1.2).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import paths, permcore
from .errors import NotAlternating, NotASnake, NotRcInvariant, OddLength, ValidationError
from .paths import (
    _RISE,
    LabeledBallotPath,
    LaguerreHistory,
    _weight_cap,
    count_lbp_dp,
    format_path,
    validate_labeled_ballot,
    validate_laguerre,
)


@dataclasses.dataclass(frozen=True)
class ThreeWIP:
    """A pair of equal-length permutations whose columnwise maxima weakly increase."""

    sigma: tuple[int, ...]
    pi: tuple[int, ...]


def is_wip3(sigma: Sequence[int], pi: Sequence[int]) -> bool:
    if len(sigma) != len(pi):
        return False
    if not (permcore.is_permutation(sigma) and permcore.is_permutation(pi)):
        return False
    maxima = [max(a, b) for a, b in zip(sigma, pi)]
    return all(maxima[i] <= maxima[i + 1] for i in range(len(maxima) - 1))


def validate_wip3(sigma: Sequence[int], pi: Sequence[int]) -> ThreeWIP:
    if not is_wip3(sigma, pi):
        raise ValueError("columnwise maxima are not weakly increasing over two permutations")
    return ThreeWIP(tuple(sigma), tuple(pi))


def format_wip3(wip: ThreeWIP) -> str:
    """Both rows in permutation format, joined by ' / '."""
    return permcore.format_perm(wip.sigma) + " / " + permcore.format_perm(wip.pi)


def parse_wip3(text: str) -> ThreeWIP:
    head, sep, tail = text.partition("/")
    if not sep:
        raise ValueError(f"expected 'sigma / pi' in {text!r}")
    return validate_wip3(permcore.parse_perm(head), permcore.parse_perm(tail))


# ---------------------------------------------------------------------------
# validators of the one-line families: each raises on a non-member

def validate_snake(snake: Sequence[int]) -> None:
    """A signed permutation with a positive first entry, running down-up."""
    if not (permcore.is_snake(snake) and permcore.is_signed_permutation(snake)):
        raise NotASnake(f"not a snake: {tuple(snake)}")


def validate_permutation(word: tuple[int, ...]) -> None:
    """A permutation of 1..n."""
    if not permcore.is_permutation(word):
        raise ValidationError(f"not a permutation: {word}")


def validate_alternating(perm: Sequence[int]) -> None:
    """A down-up alternating permutation."""
    word = tuple(perm)
    if not permcore.is_alternating(word):
        raise NotAlternating(f"not alternating: {word}")
    validate_permutation(word)


def validate_rcalt(perm: Sequence[int]) -> None:
    """An alternating permutation of even length fixed by reverse-complement."""
    word = tuple(perm)
    if len(word) % 2:
        raise OddLength(f"length {len(word)} is odd")
    if not permcore.is_alternating(word):
        raise NotAlternating(f"not alternating: {word}")
    if permcore.reverse_complement(word) != word:
        raise NotRcInvariant(f"not rc-invariant: {word}")
    validate_permutation(word)


# ---------------------------------------------------------------------------
# sequence oracles

@dataclasses.dataclass(frozen=True)
class SpringerTable:
    """Springer numbers S_0..S_m with a tag recording how they were computed."""

    values: tuple[int, ...]
    method: str  # "egf" | "dp" | "enumeration"


# k-th derivative of cos - sin at 0, by k mod 4
_COS_MINUS_SIN = (1, -1, -1, 1)
# k-th derivative of cos at 0 and of 1 + sin at 0, by k mod 4
_COS = (1, 0, -1, 0)
_ONE_PLUS_SIN = (0, 1, 0, -1)


def springer_egf(m: int) -> SpringerTable:
    """S_0..S_m from the reciprocal of cos - sin, as exact integers.

    The product rule for exponential generating functions turns
    (cos - sin) * S = 1 into S_n = -sum_{k=1..n} C(n,k) c_k S_{n-k} with
    c_k the k-th derivative of cos - sin at 0.

    >>> springer_egf(6).values
    (1, 1, 3, 11, 57, 361, 2763)
    """
    values = [1]
    for n in range(1, m + 1):
        acc = 0
        for k in range(1, n + 1):
            acc += math.comb(n, k) * _COS_MINUS_SIN[k % 4] * values[n - k]
        values.append(-acc)
    return SpringerTable(tuple(values), "egf")


def springer_dp(m: int) -> SpringerTable:
    """S_0..S_m via the weighted ballot-path dynamic program (independent oracle)."""
    return SpringerTable(tuple(count_lbp_dp(n) for n in range(m + 1)), "dp")


def springer_enumeration(m: int) -> SpringerTable:
    """S_0..S_m by brute-force snake counting (desk-scale only)."""
    return SpringerTable(
        tuple(sum(1 for _ in enumerate_snakes(n)) for n in range(m + 1)), "enumeration"
    )


def euler_sequence(m: int) -> tuple[int, ...]:
    """E_0..E_m from (tan + sec) * cos = 1 + sin, as exact integers.

    >>> euler_sequence(6)
    (1, 1, 1, 2, 5, 16, 61)
    """
    values = [1]
    for n in range(1, m + 1):
        rhs = _ONE_PLUS_SIN[n % 4]
        acc = sum(
            math.comb(n, k) * _COS[k % 4] * values[n - k] for k in range(1, n + 1)
        )
        values.append(rhs - acc)
    return tuple(values)


# ---------------------------------------------------------------------------
# enumerators (canonical text order by construction) and the family registry

def _in_text_order(values: Iterable[int]) -> list[int]:
    """Token values in the order of their decimal text: -1 < -2 < 1 < 10 < 2."""
    return sorted(values, key=str)


def _zigzags(n: int, values: Iterable[int], slot: Callable[[int], int],
             last_ok: Callable[[int], bool] = lambda v: True) -> Iterator[tuple[int, ...]]:
    """Words w of length n with 0 < w1 > w2 < w3 > ..., in text order.

    Entries come from values; no two share a slot(v) in 1..n. The last entry
    must also pass last_ok.
    """
    order = [(v, slot(v)) for v in _in_text_order(values)]
    word: list[int] = []
    used = [False] * (n + 1)

    def rec():
        i = len(word)
        if i == n:
            yield tuple(word)
            return
        prev = word[-1] if word else 0
        for v, s in order:
            if used[s] or (v < prev if i % 2 == 0 else v > prev):
                continue
            if i == n - 1 and not last_ok(v):
                continue
            used[s] = True
            word.append(v)
            yield from rec()
            word.pop()
            used[s] = False

    return rec()


def enumerate_snakes(n: int) -> Iterator[tuple[int, ...]]:
    """All snakes of length n, in increasing text order; there are S_n of them."""
    return _zigzags(n, [*range(-n, 0), *range(1, n + 1)], abs)


def enumerate_alternating(n: int) -> Iterator[tuple[int, ...]]:
    """All down-up alternating permutations of length n (E_n many)."""
    return _zigzags(n, range(1, n + 1), lambda v: v)


def enumerate_rcalt(n: int) -> Iterator[tuple[int, ...]]:
    """All rc-invariant alternating permutations of length 2n (S_n many).

    Only the first half is free: position i pairs with 2n+1-i and mirrored
    entries sum to 2n+1, so v and its mirror share one slot. Down-up across
    the middle forces p[n] > n for odd n and p[n] <= n for even n.
    """
    size = 2 * n
    halves = _zigzags(n, range(1, size + 1), lambda v: min(v, size + 1 - v),
                      lambda v: (2 * v > size + 1) == (n % 2 == 1))
    return (half + tuple(size + 1 - v for v in reversed(half)) for half in halves)


def enumerate_wip3(n: int) -> Iterator[ThreeWIP]:
    """All weakly increasing 3-dimensional permutations of length n (S_n many).

    sigma comes first in the text, so each sigma is fixed before pi is
    searched under the column-max constraint. A sigma is skipped when some
    prefix maximum m_j = max(sigma_1..sigma_j) has 2 m_j > n + j + 1: the
    n - j + 1 columns from j on all need an entry >= m_j, and only
    2 (n - m_j + 1) entries are that large.
    """
    order = _in_text_order(range(1, n + 1))
    pi: list[int] = []
    used = [False] * (n + 1)

    def rec(sigma: tuple[int, ...], floor: int):
        i = len(pi)
        if i == n:
            yield ThreeWIP(sigma, tuple(pi))
            return
        for b in order:
            top = max(sigma[i], b)
            if used[b] or top < floor:
                continue
            used[b] = True
            pi.append(b)
            yield from rec(sigma, top)
            pi.pop()
            used[b] = False

    for sigma in itertools.permutations(order):
        maxima = itertools.accumulate(sigma, max)
        if all(2 * m <= n + j + 1 for j, m in enumerate(maxima, start=1)):
            yield from rec(sigma, 0)


def _labeled_paths(n: int, alphabet: str, closed: bool, make: Callable) -> Iterator:
    """Weighted paths of length n over alphabet (given in letter order), in text order.

    Step words come in letter order; each word's weight vectors follow as the
    product of its text-ordered weight ranges. A step whose range is empty
    (D or T on the axis) is never taken; closed paths must end on the axis.
    """
    steps: list[str] = []
    ranges: list[list[int]] = []

    def rec(h: int):
        remaining = n - len(steps)
        if closed and h > remaining:
            return
        if remaining == 0:
            word = "".join(steps)
            for weights in itertools.product(*ranges):
                yield make(word, weights)
            return
        for s in alphabet:
            cap = _weight_cap(s, h)
            if cap < 0:
                continue
            steps.append(s)
            ranges.append(_in_text_order(range(cap + 1)))
            yield from rec(h + _RISE[s])
            ranges.pop()
            steps.pop()

    return rec(0)


def enumerate_lbp(n: int) -> Iterator[LabeledBallotPath]:
    """All labeled ballot paths of length n (S_n many)."""
    return _labeled_paths(n, "DU", False, LabeledBallotPath)


def enumerate_laguerre(n: int) -> Iterator[LaguerreHistory]:
    """All restricted Laguerre histories of length n (n! many)."""
    return _labeled_paths(n, "DHTU", True, LaguerreHistory)


@dataclasses.dataclass(frozen=True)
class Family:
    enumerate: Callable[[int], Iterator]  # n -> objects in canonical text order
    generate: Callable[[int], Iterator]   # = enumerate; perfbench/tracer.py wraps both by name
    render: Callable[[Any], str]          # object -> canonical text
    validate: Callable[[Any], object]     # object -> raises ValueError on a non-member
    oracle: Callable[[int], int]          # n -> count, closed form
    parse: Callable[[str], Any]           # text -> object; raises ValueError on malformed text


# The adapters look up their functions by name on each call, so the spans of
# perfbench/tracer.py, which rebinds module functions, still see them.
FAMILIES: dict[str, Family] = {
    "snakes": Family(
        enumerate_snakes, enumerate_snakes, permcore.format_signed, validate_snake,
        lambda n: springer_egf(n).values[n], lambda t: permcore.parse_signed(t),
    ),
    "wip3": Family(
        enumerate_wip3, enumerate_wip3, format_wip3, lambda w: validate_wip3(w.sigma, w.pi),
        lambda n: springer_egf(n).values[n], lambda t: parse_wip3(t),
    ),
    "rcalt": Family(
        enumerate_rcalt, enumerate_rcalt, permcore.format_perm, validate_rcalt,
        lambda n: springer_egf(n).values[n], lambda t: permcore.parse_perm(t),
    ),
    "lbp": Family(
        enumerate_lbp, enumerate_lbp, format_path,
        lambda p: validate_labeled_ballot(p.steps, p.weights), count_lbp_dp,
        lambda t: paths.parse_labeled_ballot(t),
    ),
    "laguerre": Family(
        enumerate_laguerre, enumerate_laguerre, format_path,
        lambda h: validate_laguerre(h.steps, h.weights), math.factorial,
        lambda t: paths.parse_laguerre(t),
    ),
    "altperm": Family(
        enumerate_alternating, enumerate_alternating, permcore.format_perm, validate_alternating,
        lambda n: euler_sequence(n)[n], lambda t: permcore.parse_perm(t),
    ),
}


def _permutations(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.permutations(range(1, n + 1))


# All permutations of 1..n, the domain of fz, in lexicographic order (text
# order for n <= 9); kept out of FAMILIES, whose names are the --family choices.
_PERM = Family(
    _permutations, _permutations, lambda p: permcore.format_perm(p),
    lambda p: validate_permutation(p), math.factorial, lambda t: permcore.parse_perm(t),
)


def domain(name: str) -> Family:
    """The record of a bijection's domain: FAMILIES[name], or "perm"."""
    return _PERM if name == "perm" else FAMILIES[name]

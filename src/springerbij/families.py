"""Enumerators, validators and counting oracles for the combinatorial families.

The six families share one counting story: snakes, weakly increasing
3-dimensional permutations, rc-invariant alternating permutations and labeled
ballot paths are all counted by the Springer numbers; Laguerre histories are
counted by n!; alternating permutations by the Euler numbers.

Each family shape has one backtracking search, with family-specific pruning,
that produces its objects in strictly increasing order of their canonical
text: nothing is collected or sorted, and the working memory depends on n
only: O(n^2) candidate tables and weight ranges, a suffix table for the
zigzag families, a table of pi's last four entries for wip3 (at most
3((n-2)(n-3))^2 keys, 15,552 and 5.1 MiB at n = 11). Every search takes its
states from _walk, which keeps one candidate iterator per position on an
explicit stack (Knuth, TAOCP 4A, 7.2.2, Algorithm B), so no n is too deep.
The tables end the zigzag and pi searches four or five positions early, so a
walk lists the moves of few states beside the objects it stands for; at the
enumerate workload's sizes: 709 for 250,737 snakes and 1,025 for as many
rcalts (n = 8), 9,439 for 353,792 altperms (n = 11), 1,077 for wip3's 576
sigma rows and 9,432 for their 10,440 pi prefixes (24,611 objects at n = 7),
and 78 and 2,475 for the step words of 250,737 lbp paths and 40,320 laguerre
histories (n = 8). Each search feeds the object generator, and Family.text,
which writes a whole size without making the objects, one string join per
leaf (head, tail texts, end): 3,907 pieces for the snakes, 5,489 for the
rcalts, 26,586 for the altperms, 8,600 for wip3, and 2,323 and 2,594 for the
lbp paths and laguerre histories.
The order rests on one rule. All objects of one size render to the same
number of tokens (decimals, or the letters of a step word of fixed length),
and the separators that end a token, ' ' and ',', sort below '-' and the
digits; ';' and '/' sit at fixed places (after the step word, after the ' '
that ends sigma) and never decide a comparison. So text order is
lexicographic order of the token sequence with tokens compared as strings
(-1 < -2 < 1 < 10 < 2, D < H < T < U), and a search that fills positions in
text order and tries each position's candidates in that order yields text
order (Knuth, TAOCP 4A, 7.2.1.2).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from collections import namedtuple
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import paths, permcore
from .errors import NotAlternating, NotASnake, NotRcInvariant, OddLength, ValidationError
from .paths import (
    BALLOT_ALPHABET,
    MOTZKIN_ALPHABET,
    STEP_RULES,
    LabeledBallotPath,
    LaguerreHistory,
    format_path,
    validate_labeled_ballot,
    validate_laguerre,
)


class ThreeWIP(permcore.Record, namedtuple("ThreeWIP", "sigma pi")):
    """A pair of equal-length permutations (tuples) whose columnwise maxima weakly increase."""

    __slots__ = ()


_NOT_WIP3 = "columnwise maxima are not weakly increasing over two permutations"


def _maxima_rise(sigma: Sequence[int], pi: Sequence[int]) -> bool:
    maxima = list(map(max, sigma, pi))
    return all(map(operator.le, maxima, maxima[1:]))


def is_wip3(sigma: Sequence[int], pi: Sequence[int]) -> bool:
    return (len(sigma) == len(pi) and permcore.is_permutation(sigma)
            and permcore.is_permutation(pi) and _maxima_rise(sigma, pi))


def validate_wip3(sigma: Sequence[int], pi: Sequence[int]) -> ThreeWIP:
    if not is_wip3(sigma, pi):
        raise ValueError(_NOT_WIP3)
    return ThreeWIP(tuple(sigma), tuple(pi))


def format_wip3(wip: ThreeWIP) -> str:
    """Both rows in permutation format, joined by ' / '."""
    template = permcore.perm_template(len(wip.sigma)) + " / " + permcore.perm_template(len(wip.pi))
    return template % (*wip.sigma, *wip.pi)


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
# sequence oracles: derivative polynomials (Hoffman, Amer. Math. Monthly 102
# (1995) 23-30) evaluated at u = 1

def _at_one(m: int, p: list[int], shift: int) -> tuple[int, ...]:
    """p_0(1)..p_m(1) for p_k+1 = (1 + u^2) p_k' + shift u p_k, p_0 = p (coefficients,
    constant term first): the coefficient of u^j in p_k+1 is (j+1) c_j+1 + (j-1+shift) c_j-1."""
    values = []
    for _ in range(m + 1):
        values.append(sum(p))
        c = [0, *p, 0, 0]  # c[j + 1] is the coefficient of u^j
        p = [(j + 1) * c[j + 2] + (j - 1 + shift) * c[j] for j in range(len(p) + 1)]
    return tuple(values)


def springer_egf(m: int) -> tuple[int, ...]:
    """S_0..S_m, the Taylor coefficients of 1/(cos - sin), as exact integers.

    sec^(n) = sec Q_n(tan) with Q_0 = 1, Q_n+1 = (1 + u^2) Q_n' + u Q_n, and
    1/(cos x - sin x) = sec(x + pi/4) / sqrt 2, so S_n = Q_n(1).

    >>> springer_egf(6)
    (1, 1, 3, 11, 57, 361, 2763)
    """
    return _at_one(m, [1], 1)


def euler_sequence(m: int) -> tuple[int, ...]:
    """E_0..E_m, the Taylor coefficients of tan + sec, as exact integers.

    tan^(n) = P_n(tan) with P_0 = u, P_n+1 = (1 + u^2) P_n', and
    tan(x + pi/4) = tan 2x + sec 2x, so E_n = P_n(1) / 2^n.

    >>> euler_sequence(6)
    (1, 1, 1, 2, 5, 16, 61)
    """
    return tuple(v >> n for n, v in enumerate(_at_one(m, [0, 1], 0)))


# ---------------------------------------------------------------------------
# enumerators (canonical text order by construction) and the family registry

TAIL_LINES = 16  # lines of a path tail at least, where the word is long enough


def _in_text_order(values: Iterable[int]) -> list[int]:
    """Token values in the order of their decimal text: -1 < -2 < 1 < 10 < 2."""
    return sorted(values, key=str)


def _walk(n: int, start: tuple, moves: Callable[..., Iterator]) -> Iterator:
    """The states (tuples) n moves from start, depth first, in the order of the lazy moves(*state)."""
    stack = [iter([start])] if n >= 0 else []  # stack[i]: the states i moves from start not yet tried
    while stack:
        if len(stack) > n:
            yield from stack.pop()
        elif (state := next(stack[-1], None)) is None:  # exhausted: back up
            stack.pop()
        else:
            stack.append(moves(*state))


def _zigzags(n: int, values: Iterable[int], slot: Callable[[int], int],
             last_ok: Callable[[int], bool] = lambda v: True, mirror: Callable[[int], int] | None = None,
             depth: int = 4, text: bool = False) -> Iterator[tuple]:
    """Words w of length n with 0 < w1 > w2 < w3 > ..., in text order, as leaves.

    Entries come from values; no two share a slot(v) in 1..n. The last entry
    must also pass last_ok. Each previous entry p (0 before the first) has its
    text-ordered candidates above p (odd positions) and below p (even ones)
    in a table, the last position's already filtered by last_ok. A _walk over
    (prefix, bitmask of the slots taken) fills the prefix up to w_n-depth (709
    moves for 3,990 prefixes of snakes at n = 8). A table of the call, keyed by
    w_n-depth+1 and the slots taken, lists the tails (the last depth entries) in
    text order; a second, keyed by w_n-depth and the slots taken, joins the lists
    of each w_n-depth+1 after it, so a prefix with tails is one leaf (3,907 of
    the 3,990). A leaf (prefix, tails, back) stands for the words prefix + tail
    + back. With a mirror, each word goes on with the mirror images of its
    entries in reverse order: a tail carries its own, back the prefix's. For
    n <= depth, w_n-depth is w0 = 0 and 0s pad the positions below 1 (no slots).
    With text, the leaves are _text's, tails as texts: a leaf is one piece.
    """
    order = [(v, 1 << slot(v)) for v in _in_text_order(values)]
    prevs = (0, *(v for v, _ in order))
    tables = ({p: [(v, b) for v, b in order if v > p] for p in prevs},
              {p: [(v, b) for v, b in order if v < p] for p in prevs})
    last = {p: [(v, b) for v, b in tables[(n - 1) % 2][p] if last_ok(v)] for p in prevs}
    pad = dict.fromkeys(prevs, [(0, 0)])  # a position below 1 holds a 0, which takes no slot
    ends = [pad if i < 1 else last if i == n else tables[(i - 1) % 2] for i in range(n - depth + 1, n + 1)]
    suffixes, joined, cut = {}, {}, max(depth - n, 0)

    def grow(word, taken):  # w_j for j = len(word) + 1: the candidates after w_j-1 (w0 = 0) in a free slot
        candidates = tables[len(word) % 2][word[-1] if word else 0]
        return ((word + (v,), taken | b) for v, b in candidates if not taken & b)

    # the prefixes up to w_n-depth and the slots they take; for n <= depth only (), none for n < 0
    for prefix, taken in _walk(max(n - depth, min(n, 0)), ((), 0), grow):
        v = prefix[-1] if prefix else 0  # w_n-depth
        joint = joined.get((v, taken))
        if joint is None:  # first met: join the tails of each w_n-depth+1 after it, in text order
            joint = joined[v, taken] = []
            for u, c in ends[0][v]:
                if taken & c:
                    continue
                tails = suffixes.get((u, taken | c))
                if tails is None:  # first met: grow the tails one free position at a time
                    tails = [((u,), taken | c)]
                    for end in ends[1:]:
                        tails = [(t + (w,), m | d) for t, m in tails for w, d in end[t[-1]] if not m & d]
                    tails = [t[cut:] for t, _ in tails]
                    tails = [t + tuple(map(mirror, reversed(t))) for t in tails] if mirror else tails
                    tails = suffixes[u, taken | c] = list(map(permcore.format_perm, tails)) if text else tails
                joint += tails
        if joint:
            back = tuple(map(mirror, reversed(prefix))) if mirror else ()
            if text:
                prefix, back = "%d " * len(prefix) % prefix, " %d" * len(back) % back + "\n"
            yield prefix, joint, back


def _words(leaves: Iterator[tuple[tuple, list, tuple]]) -> Iterator[tuple[int, ...]]:
    """The words of _zigzags' leaves, in order."""
    for prefix, tails, back in leaves:
        for tail in tails:
            yield prefix + tail + back


def _text(leaves: Iterator[tuple[str, list, str]]) -> Iterator[str]:
    """The lines head + tail + end of leaves (head, tails, end), one piece a leaf."""
    return (head + (end + head).join(tails) + end for head, tails, end in leaves)


# the searches of the zigzag families. rcalt searches the first half: position i
# pairs with 2n+1-i, so v and its mirror image 2n+1-v share one slot, and down-up
# across the middle forces p[n] > n for odd n and p[n] <= n for even n. altperm's
# tails are one entry longer: it has few lines per prefix
_ZIGZAGS = {
    "snakes": lambda n, **text: _zigzags(n, [*range(-n, 0), *range(1, n + 1)], abs, **text),
    "altperm": lambda n, **text: _zigzags(n, range(1, n + 1), lambda v: v, depth=5, **text),
    "rcalt": lambda n, **text: _zigzags(n, range(1, 2 * n + 1), lambda v: min(v, 2 * n + 1 - v),
                                        lambda v: (v > n) == (n % 2 == 1), (2 * n + 1).__sub__, **text),
}


def enumerate_snakes(n: int) -> Iterator[tuple[int, ...]]:
    """All snakes of length n, in increasing text order; there are S_n of them."""
    return _words(_ZIGZAGS["snakes"](n))


def enumerate_alternating(n: int) -> Iterator[tuple[int, ...]]:
    """All down-up alternating permutations of length n (E_n many)."""
    return _words(_ZIGZAGS["altperm"](n))


def enumerate_rcalt(n: int) -> Iterator[tuple[int, ...]]:
    """All rc-invariant alternating permutations of length 2n (S_n many), by halves."""
    return _words(_ZIGZAGS["rcalt"](n))


def _wip3s(n: int, text: bool = False) -> Iterator[tuple]:
    """The 3-WIPs of length n in text order, as leaves (sigma, pi prefix, tails) that
    stand for the pairs (sigma, prefix + tail). Each sigma (one tuple for all its
    leaves, from a _walk) is fixed before a second _walk searches pi under the
    column-max rule.

    A prefix maximum m_j = max(sigma_1..sigma_j) has 2 m_j <= n + j + 1: the
    n - j + 1 columns from j on all need an entry >= m_j, and only 2 (n - m_j + 1)
    are that large. The bound rises with j, so sigma_j takes only the v with
    2 v <= n + j + 1, and no sigma prefix is dead.
    pi_j = b makes top = max(sigma_j, b) the floor of the later columns, and each
    with sigma below top needs a pi entry >= top. All entries so far are <= top,
    so the branch is dead when fewer unused values, n - top + 1 - [top in pi_1..j],
    are >= top than columns, top - 1 - j + [top in sigma_1..j], need one.
    The pi walk, over (prefix, floor, bitmask of the used values), fills pi up to
    pi_n-4 (9,432 moves for the 10,440 prefixes of 576 sigmas at n = 7); a table
    of the call, keyed by the floor, the used values and sigma's last four
    entries, lists the tails (pi's last four entries) in text order. With text,
    the leaves are _text's: sigma's text, ' / ' and the prefix's text; the
    tails' texts; a newline.
    """
    order = [(v, 1 << v) for v in _in_text_order(range(1, n + 1))]

    def rows(row, taken):  # sigma_j for j = len(row) + 1: the values not taken with 2 v <= n + j + 1
        return ((row + (v,), taken | b) for v, b in order if not taken & b and 2 * v <= n + len(row) + 2)

    def pis(pi, floor, used):  # pi_j for j = len(pi) + 1, its floor and the values used, under the prune
        # a generator itself, not a function that returns one: one frame start per prefix, not two
        j = len(pi)
        for b, c in order:
            top = b if b > row[j] else row[j]
            if not (used & c or top < floor
                    or 2 * top + (top == maxima[j]) + (top == b or used >> top & 1) > n + j + 3):
                yield pi + (b,), top, used | c

    cut, template, suffixes = max(n - 4, 0), permcore.perm_template(n) + " / ", {}
    for row, _ in _walk(n, ((), 0), rows):
        head, last = template % row + "%d " * cut if text else row, row[cut:]
        maxima = list(itertools.accumulate(row, max))
        for pi, floor, used in _walk(cut, ((), 0, 0), pis):  # full prefixes take their tails from the table
            key = (floor, used, last)
            tails = suffixes.get(key)
            if tails is None:  # first met: grow the tails one position at a time
                tails = [((), floor, used)]
                for s in last:
                    tails = [(t + (b,), top, m | c) for t, f, m in tails for b, c in order
                             if not m & c for top in [b if b > s else s] if top >= f]
                tails = suffixes[key] = [permcore.format_perm(t) if text else t for t, _, _ in tails]
            if tails:
                yield (head % pi, tails, "\n") if text else (head, pi, tails)


def enumerate_wip3(n: int) -> Iterator[ThreeWIP]:
    """All weakly increasing 3-dimensional permutations of length n (S_n many), made in C."""
    return itertools.chain.from_iterable(map(tuple.__new__, itertools.repeat(ThreeWIP), zip(
        itertools.repeat(sigma), map(prefix.__add__, tails))) for sigma, prefix, tails in _wip3s(n))


def _labeled_paths(n: int, alphabet: str, closed: bool) -> Iterator[tuple[str, list]]:
    """The step words of the weighted paths of length n over alphabet, in letter
    order (a _walk), each with its text-ordered weight ranges: the word's paths, in
    text order, are the product of its ranges. A step whose range is empty (D or T
    on the axis) is never taken; closed paths must end on the axis.
    """
    # moves[h]: (letter, height after it, weights) of each step open at height h
    moves = [[(s, h + rise, tuple(_in_text_order(range(h - drop + 1)))) for s in sorted(alphabet)
              for rise, drop in [STEP_RULES[s]] if h >= drop] for h in range(n)]

    def extend(word, height, ranges):  # a closed path must get back to the axis
        return ((word + s, h, ranges + [weights]) for s, h, weights in moves[height]
                if not closed or h < n - len(word))

    return ((word, ranges) for word, _, ranges in _walk(n, ("", 0, []), extend))


def _paths(leaves: Iterator[tuple[str, list]], cls: type) -> Iterator:
    """The paths of _labeled_paths' words, made in C: tuple.__new__ skips the record's Python __new__."""
    return itertools.chain.from_iterable(map(tuple.__new__, itertools.repeat(cls), zip(
        itertools.repeat(word), itertools.product(*ranges))) for word, ranges in leaves)


def _path_lines(words: Iterator[tuple[str, list]]) -> Iterator[tuple[str, list, str]]:
    """_labeled_paths' words as _text's leaves: the word and the weights before its tail, and
    the texts of the tail's product, rendered once per call and ranges. A tail is the last
    three ranges and as many before them as make it TAIL_LINES lines or more (2,594 leaves
    for the 1,430 words of laguerre at n = 8; three ranges alone make 13,200)."""
    texts = {}
    for word, ranges in words:
        k, lines = len(ranges), 1
        while k and (lines < TAIL_LINES or k > len(ranges) - 3):
            k -= 1
            lines *= len(ranges[k])
        last = tuple(ranges[k:])
        tails = texts.get(last) or texts.setdefault(
            last, list(map(",".join(["%d"] * len(last)).__mod__, itertools.product(*last))))
        yield from zip(map((word + ";" + "%d," * k).__mod__, itertools.product(*ranges[:k])),
                       itertools.repeat(tails), itertools.repeat("\n"))


def enumerate_lbp(n: int) -> Iterator[LabeledBallotPath]:
    """All labeled ballot paths of length n (S_n many)."""
    return _paths(_labeled_paths(n, BALLOT_ALPHABET, False), LabeledBallotPath)


def enumerate_laguerre(n: int) -> Iterator[LaguerreHistory]:
    """All restricted Laguerre histories of length n (n! many)."""
    return _paths(_labeled_paths(n, MOTZKIN_ALPHABET, True), LaguerreHistory)


@dataclasses.dataclass(frozen=True)
class Family:
    enumerate: Callable[[int], Iterator]  # n -> objects in canonical text order
    generate: Callable[[int], Iterator]   # = enumerate; perfbench/tracer.py wraps both by name
    render: Callable[[Any], str]          # object -> canonical text
    text: Callable[[int], Iterator[str]]  # n -> render(obj) + "\n" per object, one piece a search leaf
    validate: Callable[[Any], object]     # object -> raises ValueError on a non-member
    oracle: Callable[[int], int]          # n -> count, closed form
    parse: Callable[[str], Any]           # text -> object; raises ValueError on malformed text
    read: Callable[[str], Any]            # text -> object from the tokens alone, unchecked

    @property
    def ceiling(self) -> int:
        """The largest n whose oracle count is at most 10**9; the CLI enumerates no further."""
        return next(n for n in itertools.count() if self.oracle(n + 1) > 10**9)


# The adapters look up their functions by name on each call, so the spans of
# perfbench/tracer.py, which rebinds module functions, still see them.
FAMILIES: dict[str, Family] = {
    "snakes": Family(
        enumerate_snakes, enumerate_snakes, permcore.format_perm,
        lambda n: _text(_ZIGZAGS["snakes"](n, text=True)), validate_snake,
        lambda n: springer_egf(n)[n], lambda t: permcore.parse_signed(t), lambda t: permcore.read_perm(t),
    ),
    "wip3": Family(
        enumerate_wip3, enumerate_wip3, format_wip3, lambda n: _text(_wip3s(n, text=True)),
        lambda w: validate_wip3(w.sigma, w.pi), lambda n: springer_egf(n)[n], lambda t: parse_wip3(t),
        lambda t: ThreeWIP(*map(permcore.read_perm, t.partition("/")[::2])),  # the rows beside the first '/'
    ),
    "rcalt": Family(
        enumerate_rcalt, enumerate_rcalt, permcore.format_perm,
        lambda n: _text(_ZIGZAGS["rcalt"](n, text=True)), validate_rcalt,
        lambda n: springer_egf(n)[n], lambda t: permcore.parse_perm(t), lambda t: permcore.read_perm(t),
    ),
    "lbp": Family(
        enumerate_lbp, enumerate_lbp, format_path,
        lambda n: _text(_path_lines(_labeled_paths(n, BALLOT_ALPHABET, False))),
        lambda p: validate_labeled_ballot(p.steps, p.weights), lambda n: paths.lbp_dp_counts(n)[-1],
        lambda t: paths.parse_labeled_ballot(t), lambda t: LabeledBallotPath(*paths.parse_path_text(t)),
    ),
    "laguerre": Family(
        enumerate_laguerre, enumerate_laguerre, format_path,
        lambda n: _text(_path_lines(_labeled_paths(n, MOTZKIN_ALPHABET, True))),
        lambda h: validate_laguerre(h.steps, h.weights), math.factorial, lambda t: paths.parse_laguerre(t),
        lambda t: LaguerreHistory(*paths.parse_path_text(t)),
    ),
    "altperm": Family(
        enumerate_alternating, enumerate_alternating, permcore.format_perm,
        lambda n: _text(_ZIGZAGS["altperm"](n, text=True)), validate_alternating,
        lambda n: euler_sequence(n)[n], lambda t: permcore.parse_perm(t), lambda t: permcore.read_perm(t),
    ),
}


def _permutations(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.permutations(range(1, n + 1)) if n >= 0 else iter(())


# All permutations of 1..n, the domain of fz, in lexicographic order (text
# order for n <= 9); kept out of FAMILIES, whose names are the --family choices.
_PERM = Family(
    _permutations, _permutations, lambda p: permcore.format_perm(p),
    lambda n: (permcore.format_perm(p) + "\n" for p in _permutations(n)), lambda p: validate_permutation(p),
    math.factorial, lambda t: permcore.parse_perm(t), lambda t: permcore.read_perm(t),
)


def domain(name: str) -> Family:
    """The record of a bijection's domain: FAMILIES[name], or "perm"."""
    return _PERM if name == "perm" else FAMILIES[name]

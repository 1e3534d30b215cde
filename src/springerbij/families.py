"""Enumerators, validators and counting oracles for the combinatorial families.

The six families share one counting story: snakes, weakly increasing
3-dimensional permutations, rc-invariant alternating permutations and labeled
ballot paths are all counted by the Springer numbers; Laguerre histories are
counted by n!; alternating permutations by the Euler numbers.

Each family shape has one backtracking search, with family-specific pruning,
that produces its objects in strictly increasing order of their canonical
text: nothing is collected or sorted, and the working memory depends on n
only: O(n^2) candidate tables and weight ranges, a suffix table of at most
|values| C(n, 3) keys (with its tail texts) for the zigzag families, O(n) for
wip3. The searches keep one candidate iterator per position on an explicit
stack (Knuth, TAOCP 4A, 7.2.2, Algorithm B). Two thin consumers read each
search: the object generator, and Family.text, which writes the canonical
text of a whole size from the search's prefixes and tail lists (or step
words and weight ranges) without making the objects.
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
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import paths, permcore
from .errors import NotAlternating, NotASnake, NotRcInvariant, OddLength, ValidationError
from .paths import (
    BALLOT_ALPHABET,
    MOTZKIN_ALPHABET,
    STEP_RULES,
    LabeledBallotPath,
    LaguerreHistory,
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


def _wip3_template(m: int, n: int) -> str:
    return permcore.perm_template(m) + " / " + permcore.perm_template(n)


def format_wip3(wip: ThreeWIP) -> str:
    """Both rows in permutation format, joined by ' / '."""
    return _wip3_template(len(wip.sigma), len(wip.pi)) % (*wip.sigma, *wip.pi)


def format_wip3s(wips: Sequence[ThreeWIP]) -> str:
    """The format_wip3 lines of 3-WIPs of one length, each ended by a newline, in one %."""
    n = len(wips[0].sigma) if wips else 0
    rows = itertools.chain.from_iterable(map(operator.attrgetter("sigma", "pi"), wips))
    return (_wip3_template(n, n) + "\n") * len(wips) % tuple(itertools.chain.from_iterable(rows))


def parse_wip3(text: str) -> ThreeWIP:
    head, sep, tail = text.partition("/")
    if not sep:
        raise ValueError(f"expected 'sigma / pi' in {text!r}")
    sigma, pi = permcore.parse_perm(head), permcore.parse_perm(tail)  # checks both rows
    if len(sigma) != len(pi) or not _maxima_rise(sigma, pi):
        raise ValueError(_NOT_WIP3)
    return ThreeWIP(sigma, pi)


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


def springer_dp(m: int) -> tuple[int, ...]:
    """S_0..S_m via the weighted ballot-path dynamic program (independent oracle)."""
    return tuple(count_lbp_dp(n) for n in range(m + 1))


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

TEXT_CHUNK = 1024  # lines per piece of Family.text at most, and objects per batch it formats


def _in_text_order(values: Iterable[int]) -> list[int]:
    """Token values in the order of their decimal text: -1 < -2 < 1 < 10 < 2."""
    return sorted(values, key=str)


def _zigzags(n: int, values: Iterable[int], slot: Callable[[int], int],
             last_ok: Callable[[int], bool] = lambda v: True,
             mirror: Callable[[int], int] | None = None) -> Iterator[tuple[tuple, list, tuple]]:
    """Words w of length n with 0 < w1 > w2 < w3 > ..., in text order, as leaves.

    Entries come from values; no two share a slot(v) in 1..n. The last entry
    must also pass last_ok. Each previous entry p (0 before the first) has its
    text-ordered candidates above p (odd positions) and below p (even ones)
    in a table, the last position's already filtered by last_ok. The search
    fills the prefix w1..w_n-4 and loops over its w_n-3; a table of the call,
    keyed by w_n-3 and the bitmask of the slots taken, lists the tails
    (w_n-3, .., w_n) that end the word, in text order. A leaf (prefix, tails,
    back) stands for the words prefix + tail + back. With a mirror, each word
    goes on with the mirror images of its entries in reverse order: a tail
    carries its own, back holds the prefix's (else it is ()). For n <= 4,
    w_n-4 is w0 = 0 and 0s pad the positions below 1 (no slots).
    """
    order = [(v, 1 << slot(v)) for v in _in_text_order(values)]
    prevs = (0, *(v for v, _ in order))
    tables = ({p: [(v, b) for v, b in order if v > p] for p in prevs},
              {p: [(v, b) for v, b in order if v < p] for p in prevs})
    last = {p: [(v, b) for v, b in tables[(n - 1) % 2][p] if last_ok(v)] for p in prevs}
    pad = dict.fromkeys(prevs, [(0, 0)])  # a position below 1 holds a 0, which takes no slot
    ends = [pad] * (4 - n) + [tables[n % 2], tables[(n - 1) % 2], tables[n % 2], last][max(4 - n, 0):]
    word, taken, suffixes, cut = [], 0, {}, max(4 - n, 0)  # taken: the bits of the slots taken
    # the candidates left and the bit of the slot before; for n <= 4 only w0 (none for n < 0)
    stack = [(iter(tables[0][0] if n > 4 else [(0, 0)] * (n >= 0)), 0)]
    while stack:
        for v, b in stack[-1][0]:
            if not taken & b:
                break
        else:  # exhausted: back up and free the slot before (none at the first entry)
            taken ^= stack.pop()[1]
            del word[-1:]
            continue
        if len(stack) < n - 4:
            taken |= b
            word.append(v)
            stack.append((iter(tables[len(stack) % 2][v]), b))
            continue
        prefix = (*word, v) if n > 4 else ()  # v is w_n-4; each w_n-3 after it makes a leaf
        back = tuple(map(mirror, reversed(prefix))) if mirror else ()
        taken |= b
        for u, c in ends[0][v]:
            if taken & c:
                continue
            mask = taken | c
            tails = suffixes.get((u, mask))
            if tails is None:  # first met: nested loops over the three free slots
                tails = suffixes[u, mask] = []
                for w, d in ends[1][u]:
                    if not mask & d:
                        for x, e in ends[2][w]:
                            if not (mask | d) & e:
                                for y, f in ends[3][x]:
                                    if not (mask | d | e) & f:
                                        tails.append((u, w, x, y)[cut:])
                if mirror:
                    tails[:] = [tail + tuple(map(mirror, reversed(tail))) for tail in tails]
            if tails:
                yield prefix, tails, back
        taken ^= b


def _words(leaves: Iterator[tuple[tuple, list, tuple]]) -> Iterator[tuple[int, ...]]:
    """The words of _zigzags' leaves, in order."""
    for prefix, tails, back in leaves:
        for tail in tails:
            yield prefix + tail + back


def _zigzag_text(leaves: Iterator[tuple[tuple, list, tuple]]) -> Iterator[str]:
    """The lines of _zigzags' words, in pieces of at most TEXT_CHUNK lines.

    Each tail list's texts are rendered once per call (the lists live as long as
    the search), each prefix's and its back's once, and the lines of a prefix
    are one join: head + (end + head).join(the texts of its tails) + end.
    """
    texts, prefix, piece, lines, count = {}, None, [], [], 0  # texts: id of a tail list -> its texts
    for p, tails, back in leaves:
        if p is not prefix:  # the lines of the prefix before are all in
            if lines:
                piece.append(head + sep.join(lines) + end)
                lines = []
            prefix, head, end = p, "%d " * len(p) % p, " %d" * len(back) % back + "\n"
            sep = end + head
        ends = texts.get(id(tails)) or texts.setdefault(id(tails), list(map(permcore.format_perm, tails)))
        lines += ends
        count += len(ends)
        while count >= TEXT_CHUNK:  # fill the piece up and hand it over
            k = len(lines) - (count - TEXT_CHUNK)
            yield "".join([*piece, head + sep.join(lines[:k]) + end])
            piece, lines, count = [], lines[k:], count - TEXT_CHUNK
    if lines:
        piece.append(head + sep.join(lines) + end)
    if piece:
        yield "".join(piece)


def _chunks(items: Iterator) -> Iterator[list]:
    """Lists of the next TEXT_CHUNK items, until items runs out."""
    return iter(lambda: list(itertools.islice(items, TEXT_CHUNK)), [])


# the searches of the zigzag families. rcalt searches the first half: position i
# pairs with 2n+1-i, so v and its mirror image 2n+1-v share one slot, and down-up
# across the middle forces p[n] > n for odd n and p[n] <= n for even n
_ZIGZAGS = {
    "snakes": lambda n: _zigzags(n, [*range(-n, 0), *range(1, n + 1)], abs),
    "altperm": lambda n: _zigzags(n, range(1, n + 1), lambda v: v),
    "rcalt": lambda n: _zigzags(n, range(1, 2 * n + 1), lambda v: min(v, 2 * n + 1 - v),
                                lambda v: (v > n) == (n % 2 == 1), lambda v: 2 * n + 1 - v),
}


def enumerate_snakes(n: int) -> Iterator[tuple[int, ...]]:
    """All snakes of length n, in increasing text order; there are S_n of them."""
    return _words(_ZIGZAGS["snakes"](n))


def enumerate_alternating(n: int) -> Iterator[tuple[int, ...]]:
    """All down-up alternating permutations of length n (E_n many)."""
    return _words(_ZIGZAGS["altperm"](n))


def enumerate_rcalt(n: int) -> Iterator[tuple[int, ...]]:
    """All rc-invariant alternating permutations of length 2n (S_n many): the first
    half is searched, the second is its mirror image."""
    return _words(_ZIGZAGS["rcalt"](n))


def enumerate_wip3(n: int) -> Iterator[ThreeWIP]:
    """All weakly increasing 3-dimensional permutations of length n (S_n many).

    sigma comes first in the text, so each sigma is fixed before pi is
    searched under the column-max constraint. A sigma is skipped when some
    prefix maximum m_j = max(sigma_1..sigma_j) has 2 m_j > n + j + 1: the
    n - j + 1 columns from j on all need an entry >= m_j, and only
    2 (n - m_j + 1) entries are that large.

    pi_j = b makes top = max(sigma_j, b) the floor of the later columns, and each
    with sigma below top needs a pi entry >= top. All entries so far are <= top,
    so the branch is dead when fewer unused values, n - top + 1 - [top in pi_1..j],
    are >= top than columns, top - 1 - j + [top in sigma_1..j], need one.
    """
    order = _in_text_order(range(1, n + 1))
    if n <= 0:  # one empty 3-WIP at n = 0, none below
        yield from [ThreeWIP((), ())] * (n == 0)
        return
    bounds, used = [(n + j + 1) // 2 for j in range(1, n + 1)], [False] * (n + 1)
    for sigma in itertools.permutations(order):
        maxima = list(itertools.accumulate(sigma, max))
        if not all(map(operator.le, maxima, bounds)):
            continue
        pi, stack = [], [(iter(order), 0, 0)]  # the candidates left for pi_j+1, its floor, pi_j
        while stack:
            j = len(pi)
            candidates, floor, _ = stack[-1]
            for b in candidates:
                top = b if b > sigma[j] else sigma[j]
                if not (used[b] or top < floor
                        or 2 * top + (top == maxima[j]) + (top == b or used[top]) > n + j + 3):
                    break
            else:  # exhausted: back up and free the entry before (0, a spare, at pi_1)
                used[stack.pop()[2]] = False
                del pi[-1:]
                continue
            if j == n - 1:
                yield ThreeWIP(sigma, (*pi, b))
                continue
            used[b] = True
            pi.append(b)
            stack.append((iter(order), top, b))


def _labeled_paths(n: int, alphabet: str, closed: bool) -> Iterator[tuple[str, list]]:
    """The step words of the weighted paths of length n over alphabet, in letter
    order, each with its text-ordered weight ranges: the word's paths, in text
    order, are the product of its ranges. A step whose range is empty (D or T on
    the axis) is never taken; closed paths must end on the axis.
    """
    if n <= 0:  # one empty word at n = 0, none below
        yield from [("", [])] * (n == 0)
        return
    # moves[h]: (letter, height after it, weights) of each step open at height h
    moves = [[(s, h + rise, tuple(_in_text_order(range(h - drop + 1)))) for s in sorted(alphabet)
              for rise, drop in [STEP_RULES[s]] if h >= drop] for h in range(n)]
    steps, ranges, stack = [], [], [iter(moves[0])]  # stack[i]: the steps left for step i + 1
    while stack:
        for s, h, weights in stack[-1]:
            if not closed or h < n - len(steps):  # a closed path must get back to the axis
                break
        else:  # exhausted: back up
            stack.pop()
            del steps[-1:], ranges[-1:]
            continue
        if len(steps) < n - 1:
            steps.append(s)
            ranges.append(weights)
            stack.append(iter(moves[h]))
            continue
        yield "".join(steps) + s, [*ranges, weights]


def _paths(leaves: Iterator[tuple[str, list]], make: Callable) -> Iterator:
    """The paths of _labeled_paths' words, made in C."""
    return itertools.chain.from_iterable(
        map(make, itertools.repeat(word), itertools.product(*ranges)) for word, ranges in leaves)


def _path_text(leaves: Iterator[tuple[str, list]]) -> Iterator[str]:
    """The lines of _labeled_paths' words, TEXT_CHUNK lines at most per piece: each
    chunk of a word's weights fills one template with the word built in."""
    for word, ranges in leaves:
        line = word + ";" + ",".join(["%d"] * len(word)) + "\n"
        for chunk in _chunks(itertools.product(*ranges)):
            yield line * len(chunk) % tuple(itertools.chain.from_iterable(chunk))


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
    text: Callable[[int], Iterator[str]]  # n -> render(obj) + "\n" per object, <= TEXT_CHUNK lines a piece
    validate: Callable[[Any], object]     # object -> raises ValueError on a non-member
    oracle: Callable[[int], int]          # n -> count, closed form
    parse: Callable[[str], Any]           # text -> object; raises ValueError on malformed text

    @property
    def ceiling(self) -> int:
        """The largest n whose oracle count is at most 10**9; the CLI enumerates no further."""
        return next(n for n in itertools.count() if self.oracle(n + 1) > 10**9)


# The adapters look up their functions by name on each call, so the spans of
# perfbench/tracer.py, which rebinds module functions, still see them.
FAMILIES: dict[str, Family] = {
    "snakes": Family(
        enumerate_snakes, enumerate_snakes, permcore.format_perm,
        lambda n: _zigzag_text(_ZIGZAGS["snakes"](n)),
        validate_snake, lambda n: springer_egf(n)[n], lambda t: permcore.parse_signed(t),
    ),
    "wip3": Family(
        enumerate_wip3, enumerate_wip3, format_wip3, lambda n: map(format_wip3s, _chunks(enumerate_wip3(n))),
        lambda w: validate_wip3(w.sigma, w.pi), lambda n: springer_egf(n)[n], lambda t: parse_wip3(t),
    ),
    "rcalt": Family(
        enumerate_rcalt, enumerate_rcalt, permcore.format_perm,
        lambda n: _zigzag_text(_ZIGZAGS["rcalt"](n)),
        validate_rcalt, lambda n: springer_egf(n)[n], lambda t: permcore.parse_perm(t),
    ),
    "lbp": Family(
        enumerate_lbp, enumerate_lbp, format_path,
        lambda n: _path_text(_labeled_paths(n, BALLOT_ALPHABET, False)),
        lambda p: validate_labeled_ballot(p.steps, p.weights), count_lbp_dp,
        lambda t: paths.parse_labeled_ballot(t),
    ),
    "laguerre": Family(
        enumerate_laguerre, enumerate_laguerre, format_path,
        lambda n: _path_text(_labeled_paths(n, MOTZKIN_ALPHABET, True)),
        lambda h: validate_laguerre(h.steps, h.weights), math.factorial,
        lambda t: paths.parse_laguerre(t),
    ),
    "altperm": Family(
        enumerate_alternating, enumerate_alternating, permcore.format_perm,
        lambda n: _zigzag_text(_ZIGZAGS["altperm"](n)),
        validate_alternating, lambda n: euler_sequence(n)[n], lambda t: permcore.parse_perm(t),
    ),
}


def _permutations(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.permutations(range(1, n + 1)) if n >= 0 else iter(())


# All permutations of 1..n, the domain of fz, in lexicographic order (text
# order for n <= 9); kept out of FAMILIES, whose names are the --family choices.
_PERM = Family(
    _permutations, _permutations, lambda p: permcore.format_perm(p),
    lambda n: (permcore.format_perm(p) + "\n" for p in _permutations(n)),
    lambda p: validate_permutation(p), math.factorial, lambda t: permcore.parse_perm(t),
)


def domain(name: str) -> Family:
    """The record of a bijection's domain: FAMILIES[name], or "perm"."""
    return _PERM if name == "perm" else FAMILIES[name]

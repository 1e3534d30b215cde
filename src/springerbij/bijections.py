"""The bijections linking the four families counted by Springer numbers.

* phi: weakly increasing 3-dimensional permutations -> snakes, in three steps
  (column transposition with marks, cycle-form flattening, bar placement).
* psi: snakes -> rc-invariant alternating permutations, by shifting entries
  into 1..2n and mirroring.
* fz: permutations -> Laguerre histories (step = local shape at each value,
  weight = runs of larger values left of it); both directions are one sweep
  over a list of placeholders, which each value splits according to its step.
* rcalt_to_lbp / lbp_to_rcalt: the restriction of fz to rc-invariant
  alternating permutations, halved to a labeled ballot path and back.
* snake_to_lbp: the composite of psi with the halving map.

BIJECTIONS holds one record per bijection of the CLI, with at most one trace,
of a domain object. Every public map here checks its input as strictly as the
domain's Family.parse; of its output, the theorems once and its construction
never (a comment there proves it). phi and psi_inverse check is_snake, psi
is_alternating, lbp_to_rcalt that and rc-invariance, fz validate_laguerre,
rcalt_to_lbp halve_rc_fixed's caps and mirror, phi_inverse validate_wip3 and the
round trip. The composites and self-checks run the unchecked cores (_phi, _fz,
_fz_inverse) where a neighbouring check covers them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import chain
from operator import itemgetter, neg
from typing import Sequence

from . import paths, permcore
from .errors import MarkNotCyclePeak, NotAlternating, NotASnake, NotRcInvariant, ValidationError
from .families import ThreeWIP, validate_permutation, validate_rcalt, validate_snake, validate_wip3
from .paths import (
    LabeledBallotPath,
    LaguerreHistory,
    extend_to_rc_fixed,
    halve_rc_fixed,
    validate_laguerre,
)
from .permcore import (
    MarkedPermutation,
    foata,
    foata_inverse,
    format_marked,
    invert,
)


# ---------------------------------------------------------------------------
# phi: 3-dimensional permutations <-> snakes

def phi_step1(wip: ThreeWIP) -> MarkedPermutation:
    """Transpose the columns into a permutation and mark distinguished cycle peaks.

    The permutation tau sends sigma_i to pi_i. A cycle peak k gets a mark when
    a column boundary shows k at the top just before k at the bottom
    (sigma_l = k = pi_{l+1}). Those two columns, (k, tau_k) then (tau^-1_k, k),
    also tell whether k is a cycle peak: tau_k < k > tau^-1_k.
    """
    sigma, pi = wip.sigma, wip.pi
    tau = [0] * len(sigma)
    for s, p in zip(sigma, pi):
        tau[s - 1] = p
    marks = frozenset(k for k, t, s, p in zip(sigma, pi, sigma[1:], pi[1:]) if k == p and t < k > s)
    return MarkedPermutation(tuple(tau), marks)


def phi_step1_inverse(mp: MarkedPermutation) -> ThreeWIP:
    """Rebuild the column pair from a permutation with marked cycle peaks.

    Column (i, tau_i) goes to bucket max(i, tau_i). Bucket k gets two columns
    exactly when k is a cycle peak, first (tau^-1_k, k), then (k, tau_k): the
    order of an unmarked peak, reversed for a marked one. The buckets in turn
    give the two rows. A column with an entry above n stays in bucket i, and
    validate_wip3 rejects the rows.
    """
    tau, marks = mp.perm, mp.marks
    n = len(tau)
    buckets = [[] for _ in range(n + 1)]
    for i, t in enumerate(tau, start=1):
        buckets[t if i < t <= n else i].append((i, t))
    bad = sorted(marks - {k for k, bucket in enumerate(buckets) if len(bucket) == 2})
    if bad:
        raise MarkNotCyclePeak(f"marked values {bad} are not cycle peaks")
    for k in marks:
        buckets[k].reverse()
    cols = list(chain.from_iterable(buckets))
    return validate_wip3(tuple(map(itemgetter(0), cols)), tuple(map(itemgetter(1), cols)))


def phi_step2(tau: MarkedPermutation) -> MarkedPermutation:
    """Step 2 of phi: flatten the cycle form of tau (Foata's transformation), keeping its marks.

    >>> format_marked(phi_step2(MarkedPermutation((2, 6, 7, 9, 5, 3, 1, 8, 4), frozenset({7, 9}))))
    '5 7^ 1 2 6 3 8 9^ 4'
    """
    return MarkedPermutation(foata(tau.perm), tau.marks)


def place_bars(tau_tilde: MarkedPermutation) -> tuple[int, ...]:
    """Step 3 of phi: bar each right valley whose left peak is marked, and every
    other entry in even position. Under p[0] = 0 and p[n+1] = +inf, left peaks and
    right valleys alternate, starting with a peak: the k-th valley is the k-th peak's,
    signed as it closes; the last closes after the loop, where p[n+1] = +inf would."""
    word, marks = tau_tilde.perm, tau_tilde.marks
    out = list(word)
    out[1::2] = map(neg, word[1::2])
    marked, prev, rose = False, 0, True
    for i, v in enumerate(word):  # prev = p[i], v = p[i+1]; rose: p[i-1] < p[i]
        if rose:
            if prev > v:  # a left peak
                marked = prev in marks
        elif prev < v:  # its right valley
            out[i - 1] = -prev if marked else prev
        prev, rose = v, prev < v
    if not rose:
        out[-1] = -prev if marked else prev
    return tuple(out)


def _phi(wip: ThreeWIP) -> tuple[int, ...]:  # wip is known to be a 3-WIP
    return place_bars(phi_step2(phi_step1(wip)))


def phi(wip: ThreeWIP) -> tuple[int, ...]:
    """Map a weakly increasing 3-dimensional permutation to a snake, checked to run down-up.

    >>> phi(ThreeWIP((1, 5, 2, 6, 7, 3, 8, 9, 4), (2, 5, 6, 3, 1, 7, 8, 4, 9)))
    (5, -7, -1, -2, 6, 3, 8, -9, -4)
    """
    validate_wip3(wip.sigma, wip.pi)
    snake = _phi(wip)
    if not permcore.is_snake(snake):  # place_bars only signs foata's permutation
        raise NotASnake(f"not a snake: {snake}")
    return snake


def unbar(snake: Sequence[int]) -> MarkedPermutation:
    """Invert step 3: mark the k-th left peak when the k-th right valley has a bar (see place_bars)."""
    word = tuple(map(abs, snake))
    marks, peak, prev, rose = [], 0, 0, True
    for i, v in enumerate(word):  # prev = p[i], v = p[i+1]; rose: p[i-1] < p[i]
        if rose:
            if prev > v:
                peak = prev
        elif prev < v and snake[i - 1] < 0:
            marks.append(peak)
        prev, rose = v, prev < v
    if not rose and snake[-1] < 0:
        marks.append(peak)
    return MarkedPermutation(word, frozenset(marks))


def phi_inverse_trace(snake: Sequence[int]) -> MarkedPermutation:
    """Invert steps 3 and 2 of phi: the tau that phi_step1_inverse takes."""
    validate_snake(snake)
    tau_tilde = unbar(snake)
    return MarkedPermutation(foata_inverse(tau_tilde.perm), tau_tilde.marks)


def phi_inverse(snake: Sequence[int]) -> ThreeWIP:
    """Map a snake back to its 3-dimensional permutation.

    >>> phi_inverse((5, -7, -1, -2, 6, 3, 8, -9, -4)).sigma
    (1, 5, 2, 6, 7, 3, 8, 9, 4)
    """
    wip = phi_step1_inverse(phi_inverse_trace(snake))  # checks the 3-WIP, so the round trip may skip it
    if _phi(wip) != tuple(snake):
        raise ValidationError(f"phi does not map phi_inverse's image back to {tuple(snake)}")
    return wip


# ---------------------------------------------------------------------------
# psi: snakes <-> rc-invariant alternating permutations

def psi(snake: Sequence[int]) -> tuple[int, ...]:
    """Map a snake of length n to an rc-invariant alternating permutation of length 2n.

    Entries shift into 1..2n (positives up by n, negatives up by n+1), which
    preserves relative order and, as |v| runs over 1..n once, takes one value of
    each pair summing to 2n+1. For odd n the reversed shifted word becomes the
    first half, for even n the second; the mirror gives the other half, the other
    value of each pair. So the image is an rc-invariant permutation as built, and
    only its alternation, the theorem, is checked.

    >>> psi((2, 1, 5, -4, -3))
    (3, 2, 10, 6, 7, 4, 5, 1, 9, 8)
    """
    validate_snake(snake)
    n = len(snake)
    shifted = tuple(n + v if v > 0 else n + 1 + v for v in snake)
    half = shifted[::-1] if n % 2 else shifted
    mirror = tuple(2 * n + 1 - v for v in reversed(half))
    full = half + mirror if n % 2 else mirror + half
    if not permcore.is_alternating(full):
        raise NotAlternating(f"not alternating: {full}")
    return full


def psi_inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """Recover the snake from an rc-invariant alternating permutation, checked to run down-up.

    >>> psi_inverse((3, 2, 10, 6, 7, 4, 5, 1, 9, 8))
    (2, 1, 5, -4, -3)
    """
    word = tuple(perm)
    validate_rcalt(word)
    n = len(word) // 2
    shifted = word[:n][::-1] if n % 2 else word[n:]
    snake = tuple(v - n if v > n else v - n - 1 for v in shifted)
    if not permcore.is_snake(snake):  # shifted holds one of v, 2n+1-v for each v: a signed permutation
        raise NotASnake(f"not a snake: {snake}")
    return snake


# ---------------------------------------------------------------------------
# fz: permutations <-> Laguerre histories

# Value i fills the k-th placeholder and leaves one on each side where its neighbour
# in the permutation is larger: "_ i _" (U), "i _" (H), "i" (D) or "_ i" (T). So U
# inserts a placeholder right of the k-th, H replaces it, D deletes it and T keeps it.

def fz(perm: Sequence[int]) -> LaguerreHistory:
    """Map a permutation to its Laguerre history.

    The step of value i is the local shape of the word at i's position
    (valley U, peak D, double ascent H, double descent T, with the usual
    0 / +inf end conventions). Its weight is the number of runs of values
    above i that end left of i: the adjacent descents there that straddle i.

    >>> fz((4, 3, 1, 2, 9, 6, 8, 5, 7))
    LaguerreHistory(steps='UHTDUUHDD', weights=(0, 1, 0, 0, 0, 0, 2, 1, 0))
    """
    word = tuple(perm)
    validate_permutation(word)
    hw = _fz(word)
    return validate_laguerre(hw.steps, hw.weights)


def _fz(word: Sequence[int]) -> LaguerreHistory:  # word is known to be a permutation
    padded = (0, *word, len(word) + 1)  # p[0] = 0 and p[n+1] = +inf
    starts = [1]  # where each run of values >= i begins, left to right (1-based)
    steps = []
    weights = []
    for i, j in enumerate(invert(word), start=1):
        k = bisect_right(starts, j) - 1
        weights.append(k)
        if padded[j - 1] > i:
            if padded[j + 1] > i:
                steps.append("U")
                starts.insert(k + 1, j + 1)
            else:
                steps.append("T")
        elif padded[j + 1] > i:
            steps.append("H")
            starts[k] = j + 1
        else:
            steps.append("D")
            del starts[k]
    return LaguerreHistory("".join(steps), tuple(weights))


def fz_inverse(hw: LaguerreHistory) -> tuple[int, ...]:
    """Rebuild the permutation from a history by placeholder substitution.

    Starting from a single placeholder, step i replaces the (w_i+1)-th
    placeholder by "_ i _" (U), "i _" (H), "i" (D) or "_ i" (T); the one
    placeholder left at the end is dropped. At height h there are h + 1
    placeholders, one more than the largest weight validate_laguerre admits.

    >>> fz_inverse(LaguerreHistory("UHTDUUHDD", (0, 1, 0, 0, 0, 0, 2, 1, 0)))
    (4, 3, 1, 2, 9, 6, 8, 5, 7)
    """
    validate_laguerre(hw.steps, hw.weights)
    return _fz_inverse(hw)


def _fz_inverse(hw: LaguerreHistory) -> tuple[int, ...]:  # hw is known to be a history
    n = len(hw.steps)
    after = [0] * (n + 1)  # the value right of v; after[0] heads the list and 0 ends it
    gaps = [0]             # the value each (never adjacent) placeholder follows, left to right
    for i, (s, w) in enumerate(zip(hw.steps, hw.weights), start=1):
        left = gaps[w]
        after[i], after[left] = after[left], i
        if s == "U":
            gaps.insert(w + 1, i)
        elif s == "H":
            gaps[w] = i
        elif s == "D":
            del gaps[w]
    perm = []
    v = 0
    for _ in range(n):
        v = after[v]
        perm.append(v)
    return tuple(perm)


# ---------------------------------------------------------------------------
# the halved maps and the composite

def rcalt_to_lbp(perm: Sequence[int]) -> LabeledBallotPath:
    """Halve the history of an rc-invariant alternating permutation.

    On this domain the history is a level-step-free rc-fixed labeled Dyck
    path, so its first half is a labeled ballot path that remembers it all.

    >>> from .paths import format_path
    >>> format_path(rcalt_to_lbp((5, 2, 14, 11, 12, 7, 9, 6, 8, 3, 4, 1, 13, 10)))
    'UUUDDUU;0,0,1,2,0,0,0'
    """
    validate_rcalt(perm)
    return halve_rc_fixed(_fz(perm))  # halve_rc_fixed checks the history, as a ballot word


def lbp_to_rcalt(lbp: LabeledBallotPath) -> tuple[int, ...]:
    """Extend a labeled ballot path to its rc-fixed history and pull it back; checks fz's theorems."""
    perm = _fz_inverse(extend_to_rc_fixed(lbp))  # a permutation of 1..2n: each value linked once
    if not permcore.is_alternating(perm):  # fz's theorems: down-up and rc-invariant
        raise NotAlternating(f"not alternating: {perm}")
    if permcore.reverse_complement(perm) != perm:
        raise NotRcInvariant(f"not rc-invariant: {perm}")
    return perm


def snake_to_lbp(snake: Sequence[int]) -> LabeledBallotPath:
    """The composite snake -> rc-invariant alternating permutation -> labeled ballot path.

    >>> from .paths import format_path
    >>> format_path(snake_to_lbp((2, -1, 5, 4, 7, -6, -3)))
    'UUUDDUU;0,0,1,2,0,0,0'
    """
    return halve_rc_fixed(_fz(psi(snake)))  # psi checks its output as rcalt_to_lbp would


def lbp_to_snake(lbp: LabeledBallotPath) -> tuple[int, ...]:
    """Inverse of snake_to_lbp."""
    return psi_inverse(_fz_inverse(extend_to_rc_fixed(lbp)))  # psi_inverse checks its input


# ---------------------------------------------------------------------------
# one record per bijection

# domain and codomain are families.domain names; forward and inverse map one
# object; trace, if any, maps a member (unchecked: map ran first) to its
# (label, text) lines
Bijection = namedtuple("Bijection", "domain codomain forward inverse trace", defaults=(None,))


def _phi_lines(wip: ThreeWIP) -> tuple[tuple[str, str], ...]:
    tau = phi_step1(wip)
    return ("tau", format_marked(tau)), ("tautilde", format_marked(phi_step2(tau)))


# The lambdas name the maps in their bodies, so a map is looked up when it is
# called: perfbench/tracer.py and tests rebind module functions.
BIJECTIONS: dict[str, Bijection] = {
    "phi": Bijection("wip3", "snakes", lambda x: phi(x), lambda y: phi_inverse(y), _phi_lines),
    "psi": Bijection("snakes", "rcalt", lambda x: psi(x), lambda y: psi_inverse(y)),
    "fz": Bijection("perm", "laguerre", lambda x: fz(x), lambda y: fz_inverse(y)),
    "bigpsi": Bijection("rcalt", "lbp", lambda x: rcalt_to_lbp(x), lambda y: lbp_to_rcalt(y)),
    "snake2lbp": Bijection("snakes", "lbp", lambda x: snake_to_lbp(x), lambda y: lbp_to_snake(y)),
    "wbar": Bijection("lbp", "lbp", lambda x: paths.wbar(x), lambda y: paths.wbar(y)),
}

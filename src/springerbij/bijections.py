"""The bijections linking the four families counted by Springer numbers.

* phi: weakly increasing 3-dimensional permutations -> snakes, in three steps
  (column transposition with marks, cycle-form flattening, bar placement).
* psi: snakes -> rc-invariant alternating permutations, by shifting entries
  into 1..2n and mirroring.
* fz: permutations -> Laguerre histories (step = local shape at each value,
  weight = straddling-descent count), with a placeholder-substitution inverse.
* rcalt_to_lbp / lbp_to_rcalt: the restriction of fz to rc-invariant
  alternating permutations, halved to a labeled ballot path and back.
* snake_to_lbp: the composite of psi with the halving map.

BIJECTIONS holds one record per bijection of the CLI. Every map here rejects
a non-member of its domain and cheaply checks what the theorems guarantee of
its output, so silent drift turns into loud failures.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Sequence

from . import paths
from .errors import InconsistentBars, MarkNotCyclePeak, NotClosed, PlaceholderExhausted
from .families import ThreeWIP, validate_permutation, validate_rcalt, validate_snake, validate_wip3
from .paths import (
    LabeledBallotPath,
    LaguerreHistory,
    extend_to_rc_fixed,
    halve_rc_fixed,
    validate_labeled_ballot,
    validate_laguerre,
)
from .permcore import (
    MarkedPermutation,
    count_pat_31_2_at,
    cycle_peaks,
    foata,
    foata_inverse,
    format_marked,
    is_alternating,
    is_snake,
    left_peaks,
    reverse_complement,
    right_valleys,
)


# ---------------------------------------------------------------------------
# phi: 3-dimensional permutations <-> snakes

def phi_step1(wip: ThreeWIP) -> MarkedPermutation:
    """Transpose the columns into a permutation and mark distinguished cycle peaks.

    The permutation tau sends sigma_i to pi_i. A cycle peak k of tau gets a
    mark exactly when some column boundary shows k at the top immediately
    before k at the bottom (sigma_l = k = pi_{l+1}), which records how the two
    columns sharing the maximum k were ordered.
    """
    sigma, pi = wip.sigma, wip.pi
    n = len(sigma)
    tau = [0] * n
    for i in range(n):
        tau[sigma[i] - 1] = pi[i]
    word = tuple(tau)
    peaks = cycle_peaks(word)
    marks = frozenset(
        sigma[l] for l in range(n - 1) if sigma[l] == pi[l + 1] and sigma[l] in peaks
    )
    return MarkedPermutation(word, marks)


def phi_step1_inverse(mp: MarkedPermutation) -> ThreeWIP:
    """Rebuild the column pair from a permutation with marked cycle peaks.

    Each column i carries the key c = max(i, tau_i). A key value k is shared
    by two columns exactly when k is a cycle peak; the marked peaks put the
    (k, tau_k) column first, the unmarked ones second. Sorting by key and
    dropping it yields the two rows.
    """
    tau, marks = mp.perm, mp.marks
    if not marks <= cycle_peaks(tau):
        bad = sorted(marks - cycle_peaks(tau))
        raise MarkNotCyclePeak(f"marked values {bad} are not cycle peaks")

    def key(col: tuple[int, int]) -> tuple[int, int]:
        i, t = col
        c = max(i, t)
        if i == t:          # fixed point: its key is unshared
            return (c, 0)
        if i == c:          # the (k, tau_k) column of a shared key k = i
            return (c, 0 if c in marks else 1)
        return (c, 1 if c in marks else 0)

    cols = sorted(((i, t) for i, t in enumerate(tau, start=1)), key=key)
    sigma = tuple(i for i, _ in cols)
    pi = tuple(t for _, t in cols)
    return validate_wip3(sigma, pi)


@dataclasses.dataclass(frozen=True)
class PhiTrace:
    """Intermediates of phi: tau after step 1, its flattening after step 2, and the snake."""

    tau: MarkedPermutation
    tau_tilde: MarkedPermutation
    snake: tuple[int, ...]


def _place_bars(tau_tilde: MarkedPermutation) -> tuple[int, ...]:
    """Step 3 of phi: bar every non-valley in even position, and every right
    valley whose nearest left peak to the left carries a mark."""
    word, marks = tau_tilde.perm, tau_tilde.marks
    peaks = set(left_peaks(word))
    valleys = set(right_valleys(word))
    out = []
    last_peak_value = None
    for pos, v in enumerate(word, start=1):
        if pos in peaks:
            last_peak_value = v
        if pos in valleys:
            # unreachable on real inputs: a valley always has a peak before it
            assert last_peak_value is not None, "right valley with no left peak"
            barred = last_peak_value in marks
        else:
            barred = pos % 2 == 0
        out.append(-v if barred else v)
    return tuple(out)


def phi_trace(wip: ThreeWIP) -> PhiTrace:
    """Run phi and keep the intermediates (used by the CLI --trace mode)."""
    validate_wip3(wip.sigma, wip.pi)
    tau = phi_step1(wip)
    tau_tilde = MarkedPermutation(foata(tau.perm), tau.marks)
    return PhiTrace(tau, tau_tilde, _place_bars(tau_tilde))


def phi(wip: ThreeWIP) -> tuple[int, ...]:
    """Map a weakly increasing 3-dimensional permutation to a snake.

    >>> phi(ThreeWIP((1, 5, 2, 6, 7, 3, 8, 9, 4), (2, 5, 6, 3, 1, 7, 8, 4, 9)))
    (5, -7, -1, -2, 6, 3, 8, -9, -4)
    """
    snake = phi_trace(wip).snake
    assert is_snake(snake)
    return snake


def _unbar(snake: Sequence[int]) -> MarkedPermutation:
    """Invert step 3: read the marks off the bars sitting at right valleys.

    All valleys attached to one peak must agree on their sign; disagreement
    cannot happen for genuine snakes and raises InconsistentBars.
    """
    word = tuple(abs(v) for v in snake)
    peaks = left_peaks(word)
    valleys = right_valleys(word)
    marks = set()
    bounds = list(peaks) + [len(word) + 1]
    for which, p in enumerate(peaks):
        attached = [q for q in valleys if p < q < bounds[which + 1]]
        assert attached, "left peak with no right valley"
        flags = {snake[q - 1] < 0 for q in attached}
        if len(flags) == 2:
            raise InconsistentBars(f"valleys after peak at position {p} disagree")
        if flags.pop():
            marks.add(word[p - 1])
    return MarkedPermutation(word, frozenset(marks))


def phi_inverse_trace(snake: Sequence[int]) -> PhiTrace:
    validate_snake(snake)
    tau_tilde = _unbar(snake)
    tau = MarkedPermutation(foata_inverse(tau_tilde.perm), tau_tilde.marks)
    return PhiTrace(tau, tau_tilde, tuple(snake))


def phi_inverse(snake: Sequence[int]) -> ThreeWIP:
    """Map a snake back to its 3-dimensional permutation.

    >>> phi_inverse((5, -7, -1, -2, 6, 3, 8, -9, -4)).sigma
    (1, 5, 2, 6, 7, 3, 8, 9, 4)
    """
    trace = phi_inverse_trace(snake)
    wip = phi_step1_inverse(trace.tau)
    assert phi(wip) == tuple(snake)
    return wip


# ---------------------------------------------------------------------------
# psi: snakes <-> rc-invariant alternating permutations

def psi(snake: Sequence[int]) -> tuple[int, ...]:
    """Map a snake of length n to an rc-invariant alternating permutation of length 2n.

    Entries shift into 1..2n (positives up by n, negatives up by n+1), which
    preserves relative order. For odd n the reversed shifted word becomes the
    first half, for even n the shifted word itself becomes the second half;
    the other half is forced by mirrored entries summing to 2n+1.

    >>> psi((2, 1, 5, -4, -3))
    (3, 2, 10, 6, 7, 4, 5, 1, 9, 8)
    """
    validate_snake(snake)
    n = len(snake)
    shifted = tuple(n + v if v > 0 else n + 1 + v for v in snake)
    half = shifted[::-1] if n % 2 else shifted
    mirror = tuple(2 * n + 1 - v for v in reversed(half))
    full = half + mirror if n % 2 else mirror + half
    assert is_alternating(full) and reverse_complement(full) == full
    return full


def psi_inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """Recover the snake from an rc-invariant alternating permutation.

    >>> psi_inverse((3, 2, 10, 6, 7, 4, 5, 1, 9, 8))
    (2, 1, 5, -4, -3)
    """
    word = tuple(perm)
    validate_rcalt(word)
    n = len(word) // 2
    shifted = word[:n][::-1] if n % 2 else word[n:]
    snake = tuple(v - n if v > n else v - n - 1 for v in shifted)
    assert is_snake(snake)
    return snake


# ---------------------------------------------------------------------------
# fz: permutations <-> Laguerre histories

def fz(perm: Sequence[int]) -> LaguerreHistory:
    """Map a permutation to its Laguerre history.

    The step of value i is the local shape of the word at i's position
    (valley U, peak D, double ascent H, double descent T, with the usual
    0 / +inf end conventions); i's weight counts the adjacent descents left
    of i's position that straddle i.

    >>> fz((4, 3, 1, 2, 9, 6, 8, 5, 7))
    LaguerreHistory(steps='UHTDUUHDD', weights=(0, 1, 0, 0, 0, 0, 2, 1, 0))
    """
    word = tuple(perm)
    validate_permutation(word)
    n = len(word)
    position = {v: j for j, v in enumerate(word)}
    steps = []
    weights = []
    for i in range(1, n + 1):
        j = position[i]
        ascends_in = j == 0 or word[j - 1] < i
        ascends_out = j == n - 1 or word[j + 1] > i
        if ascends_in and ascends_out:
            steps.append("H")
        elif ascends_in:
            steps.append("D")
        elif ascends_out:
            steps.append("U")
        else:
            steps.append("T")
        weights.append(count_pat_31_2_at(word, i))
    return validate_laguerre("".join(steps), weights)


_GAP = 0  # placeholder token inside fz_inverse


def fz_inverse(hw: LaguerreHistory) -> tuple[int, ...]:
    """Rebuild the permutation from a history by placeholder substitution.

    Starting from a single placeholder, step i replaces the (w_i+1)-th
    placeholder by "_ i _" (U), "i _" (H), "i" (D) or "_ i" (T); the one
    placeholder left at the end is dropped.

    >>> fz_inverse(LaguerreHistory("UHTDUUHDD", (0, 1, 0, 0, 0, 0, 2, 1, 0)))
    (4, 3, 1, 2, 9, 6, 8, 5, 7)
    """
    validate_laguerre(hw.steps, hw.weights)
    blocks = {"U": (_GAP, None, _GAP), "H": (None, _GAP), "D": (None,), "T": (_GAP, None)}
    tokens: list[int] = [_GAP]
    for i, (s, w) in enumerate(zip(hw.steps, hw.weights), start=1):
        seen = 0
        at = -1
        for t, tok in enumerate(tokens):
            if tok == _GAP:
                seen += 1
                if seen == w + 1:
                    at = t
                    break
        if at < 0:
            raise PlaceholderExhausted(i, f"step {i} wants placeholder {w + 1}, only {seen} exist")
        tokens[at:at + 1] = [i if tok is None else tok for tok in blocks[s]]
    if tokens.count(_GAP) != 1:
        raise NotClosed(f"{tokens.count(_GAP)} placeholders remain after substitution")
    tokens.remove(_GAP)
    return tuple(tokens)


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
    return halve_rc_fixed(fz(perm))


def lbp_to_rcalt(lbp: LabeledBallotPath) -> tuple[int, ...]:
    """Extend a labeled ballot path to its rc-fixed history and pull it back."""
    validate_labeled_ballot(lbp.steps, lbp.weights)
    perm = fz_inverse(extend_to_rc_fixed(lbp))
    assert is_alternating(perm) and reverse_complement(perm) == perm
    return perm


def snake_to_lbp(snake: Sequence[int]) -> LabeledBallotPath:
    """The composite snake -> rc-invariant alternating permutation -> labeled ballot path.

    >>> from .paths import format_path
    >>> format_path(snake_to_lbp((2, -1, 5, 4, 7, -6, -3)))
    'UUUDDUU;0,0,1,2,0,0,0'
    """
    return rcalt_to_lbp(psi(snake))


def lbp_to_snake(lbp: LabeledBallotPath) -> tuple[int, ...]:
    """Inverse of snake_to_lbp."""
    return psi_inverse(lbp_to_rcalt(lbp))


# ---------------------------------------------------------------------------
# one record per bijection

@dataclasses.dataclass(frozen=True)
class Bijection:
    domain: str                   # a families.domain name
    codomain: str
    forward: Callable[[Any], Any]
    inverse: Callable[[Any], Any]
    trace: Callable[[Any], Iterable[tuple[str, str]]] | None = None  # object -> (label, text)
    inverse_trace: Callable[[Any], Iterable[tuple[str, str]]] | None = None


def _phi_lines(trace: PhiTrace) -> tuple[tuple[str, str], ...]:
    return ("tau", format_marked(trace.tau)), ("tautilde", format_marked(trace.tau_tilde))


# The lambdas name the maps in their bodies, so a map is looked up when it is
# called: perfbench/tracer.py and tests rebind module functions.
BIJECTIONS: dict[str, Bijection] = {
    "phi": Bijection("wip3", "snakes", lambda x: phi(x), lambda y: phi_inverse(y),
                     lambda x: _phi_lines(phi_trace(x)), lambda y: _phi_lines(phi_inverse_trace(y))),
    "psi": Bijection("snakes", "rcalt", lambda x: psi(x), lambda y: psi_inverse(y)),
    "fz": Bijection("perm", "laguerre", lambda x: fz(x), lambda y: fz_inverse(y)),
    "bigpsi": Bijection("rcalt", "lbp", lambda x: rcalt_to_lbp(x), lambda y: lbp_to_rcalt(y)),
    "snake2lbp": Bijection("snakes", "lbp", lambda x: snake_to_lbp(x), lambda y: lbp_to_snake(y)),
    "wbar": Bijection("lbp", "lbp", lambda x: paths.wbar(x), lambda y: paths.wbar(y)),
}

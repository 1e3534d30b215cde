"""The per-element and enumeration kernels against the versions they replaced.

paths._caps and paths._mirror, permcore.is_alternating, left_peaks, right_valleys
and reverse_complement, families.is_wip3 and the placeholder splices of fz and
fz_inverse are single passes over tables, slices and map. Their earlier
versions are kept here, unchanged but for their names, as oracles. The new code
must return the same value, or raise the same exception class with the same
message, on every object with n <= 7, on mutants that break one or two checks
at once (which pins the order of the checks), and on seeded random inputs at
n = 512. The fz sweeps are compared up to n = 4096, through the public maps and
through the unchecked cores that the composites call.

The generators search candidate tables and fill the last position without a
generator of its own, and the renderers format with '%d'. Their earlier
versions (a generator per position, map(str)) are oracles as well: the same
objects in the same order, and the same text.

The generators then became flat searches, one candidate iterator per position
on an explicit stack, with a pruned pi search for wip3. Their recursive
versions (a generator frame per level, the object passed up a yield-from chain)
are oracles too, and a profile hook counts the Python frames started or resumed
per object. permcore.peak_valley_pairs must equal zip(left_peaks, right_valleys).

The zigzag search (snakes, rcalt, altperm) then stopped three entries before
the end and took the last three from a suffix table of the call, keyed by
w_n-3 and the bitmask of the slots taken. Its flat version with a two-loop
leaf is an oracle: every object with n <= 8 (altperm n <= 10), type included,
none at n = -1 and -2, and the first 20,000 at each family's ceiling. Under
tracemalloc, a long prefix at the ceiling stays under the table's worst case.

The batch formatters (format_perms, format_paths, format_wip3s) fill one
template per batch of objects of one size; the single formatters, joined line
by line, are their oracles.

Family.text then replaced the batch formatting of each object in the CLI: the
zigzag search hands each prefix over with a list of tails, rcalt's tails and
prefix with their mirror images, and the path search each step word with its
weight ranges. The rendered objects, and the batch formatters (format_perms and
format_paths, which left src/, are kept here), are its oracles: every size up to n = 7, 8 or
10, none below 0, and the first 20,000 lines at each family's ceiling. rcalt's
earlier generator, which mirrored each whole half, is the oracle of its
mirrored table. No piece holds more lines than the chunk bound, and under
tracemalloc the text of a long prefix at the ceiling, its tail texts included,
stays under the table's worst case.

Every searched family then fed one text consumer with leaves (head, tail
texts, end): altperm's tails grew to five entries, filled by one loop to the
family's depth; lbp and laguerre hand over each word's head with the texts
of its last three weight ranges; wip3 hands over each sigma's text with its
pi texts, and its sigma search takes at each position only the values under
the prefix-maximum bound. The earlier text of each family is the oracle:
the four-entry altperm search with its nested loops, the permutation-filter
wip3 generator with format_wip3s, and the template-per-chunk path text, all
kept here. Every size up to n = 8 (altperm 10) at TEXT_CHUNK = 1, 7 and 1024,
full pieces but the last, and the first 20,000 lines at each ceiling. The
permutation-filter generator is also the oracle of the 3-WIP objects: every
one with n <= 8 and the first 20,000 at n = 11.

The Springer and Euler numbers come from derivative polynomials at u = 1; the
binomial recurrences of the exponential generating functions they replaced are
oracles for every m <= 300.

permcore.foata walks each cycle once from its maximum, counting down from n,
and foata_inverse links each entry to the next in one pass. Their cycle-form
versions (rotate each cycle to its maximum, sort the cycles, rebuild from
pieces) are oracles on every permutation with n <= 8 and at n = 512 and 4096.
Neither may hang on a word that is not a permutation, and both reject it.

bijections.phi_step1 reads each mark off two neighbouring columns, and
phi_step1_inverse rebuilds the columns by bucket, one bucket per column
maximum. Their versions that tested marks with permcore.cycle_peaks and sorted
the columns by a key are oracles on every 3-WIP with n <= 7, on every
permutation with n <= 5 under every mark set in {0..n+1}, and at n = 512 and
4096. phi_step1_inverse, foata and foata_inverse raise ValueError, never
IndexError, on every word of length n <= 4 over -n-1..n+1 that is not a
permutation.

The kernels of the heavy verify rows are single loops: paths._caps checks each
weight in its step loop and raises the first bad one after the closure check,
peak_valley_pairs closes its last pair after its loop instead of padding the
word, unbar and place_bars take absolute values and bars by map and slice, the
pattern counts count in a loop without copying the word, and the snake sign
predicate compares sign words. Their versions before that (a second weight
loop, a padded tuple, comprehensions, list.index with a sum over a generator)
are oracles: the same value, or the same exception class, message and args, on
every path, snake and history with n <= 7, every permutation with n <= 8 (n <= 7
for the counts, with every signed permutation with n <= 4), the _caps mutants
and non-str step sequences, every word over -n..n with n <= 5 for the sign
predicate, and seeded inputs at n = 512 and 4096. _caps is held to the two-loop
version on every str input and to the three-pass one on every str error. On a
list or tuple of letters it is held to the two-loop version that tests letters
as items of set(alphabet), not as substrings: _caps checks letters first for
any step sequence, so "" and "UD" are named before a dip or a length mismatch.
"""

import functools
import io
import itertools
import math
import operator
import random
import signal
import sys
import tracemalloc
from bisect import bisect_right

import pytest

from springerbij import bijections, families, paths, permcore, verify
from springerbij.bijections import fz, fz_inverse
from springerbij.cli import main
from springerbij.errors import (
    HeightBelowZero,
    HorizontalStepPresent,
    LengthMismatch,
    MarkNotCyclePeak,
    NotClosed,
    ValidationError,
    WeightOutOfRange,
)
from springerbij.families import (
    FAMILIES,
    ThreeWIP,
    enumerate_alternating,
    enumerate_laguerre,
    enumerate_lbp,
    enumerate_rcalt,
    enumerate_snakes,
    euler_sequence,
    format_wip3,
    is_wip3,
    springer_egf,
    validate_permutation,
    validate_wip3,
)
from springerbij.paths import (
    BALLOT_ALPHABET,
    MOTZKIN_ALPHABET,
    STEP_RULES,
    LabeledBallotPath,
    LaguerreHistory,
    format_path,
    validate_laguerre,
)
from springerbij.permcore import (
    MarkedPermutation,
    cycle_peaks,
    foata,
    foata_inverse,
    format_perm,
    is_alternating,
    left_peaks,
    peak_valley_pairs,
    reverse_complement,
    right_valleys,
)

# (alphabet, closed) of every caller of _caps: labeled ballot paths, halve_rc_fixed,
# weight_caps and Laguerre histories
CONFIGS = [(BALLOT_ALPHABET, False), (BALLOT_ALPHABET, True),
           (MOTZKIN_ALPHABET, False), (MOTZKIN_ALPHABET, True)]


# --- the earlier versions ----------------------------------------------------

_RISE = {"U": 1, "D": -1, "H": 0, "T": 0}
_FLIP = {"U": "D", "D": "U", "H": "H", "T": "T"}
_SIDES = {"U": (True, True), "H": (False, True), "D": (False, False), "T": (True, False)}
_STEP = {sides: step for step, sides in _SIDES.items()}


def _height_profile_oracle(steps):
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


def _caps_oracle(steps, weights, alphabet, closed):
    # three passes: the letters, the heights through height_profile, the weights
    for i, s in enumerate(steps, start=1):
        if s not in alphabet:
            if s in _RISE:
                raise HorizontalStepPresent(f"level step at position {i}")
            raise ValidationError(f"unknown step letter {s!r} at step {i}")
    if len(steps) != len(weights):
        raise LengthMismatch(f"{len(steps)} steps but {len(weights)} weights")
    heights = _height_profile_oracle(steps)
    final = heights[-1] + _RISE[steps[-1]] if steps else 0
    if closed and final != 0:
        raise NotClosed(f"path ends at height {final}")
    caps = []
    for i, (s, w, h) in enumerate(zip(steps, weights, heights), start=1):
        cap = h if s in ("U", "H") else h - 1
        if not (isinstance(w, int) and 0 <= w <= cap):
            raise WeightOutOfRange(i, f"weight {w} at step {i} outside 0..{cap}")
        caps.append(cap)
    return caps


def _mirror_oracle(steps, weights, caps):
    return ("".join(_FLIP[s] for s in reversed(steps)),
            tuple(c - w for c, w in zip(reversed(caps), reversed(weights))))


def _is_alternating_oracle(seq):
    for i in range(len(seq) - 1):
        if i % 2 == 0:
            if seq[i] <= seq[i + 1]:
                return False
        elif seq[i] >= seq[i + 1]:
            return False
    return True


def _left_peaks_oracle(perm):
    n = len(perm)
    return tuple(
        i + 1
        for i in range(n)
        if (i == 0 or perm[i - 1] < perm[i]) and i + 1 < n and perm[i] > perm[i + 1]
    )


def _right_valleys_oracle(perm):
    n = len(perm)
    return tuple(
        i + 1
        for i in range(n)
        if i > 0 and perm[i - 1] > perm[i] and (i + 1 == n or perm[i] < perm[i + 1])
    )


def _reverse_complement_oracle(perm):
    n = len(perm)
    return tuple(n + 1 - v for v in reversed(perm))


def _is_wip3_oracle(sigma, pi):
    if len(sigma) != len(pi):
        return False
    if not (permcore.is_permutation(sigma) and permcore.is_permutation(pi)):
        return False
    maxima = [max(a, b) for a, b in zip(sigma, pi)]
    return all(maxima[i] <= maxima[i + 1] for i in range(len(maxima) - 1))


def _fz_splice_oracle(perm):
    word = tuple(perm)
    validate_permutation(word)
    n = len(word)
    position = {v: j for j, v in enumerate(word)}
    starts = [0]
    steps = []
    weights = []
    for i in range(1, n + 1):
        j = position[i]
        before = j > 0 and word[j - 1] > i
        after = j == n - 1 or word[j + 1] > i
        k = bisect_right(starts, j) - 1
        steps.append(_STEP[before, after])
        weights.append(k)
        starts[k:k + 1] = [starts[k]] * before + [j + 1] * after
    return validate_laguerre("".join(steps), weights)


def _fz_inverse_splice_oracle(hw):
    validate_laguerre(hw.steps, hw.weights)
    n = len(hw.steps)
    after = [0] * (n + 1)
    gaps = [0]
    for i, (s, w) in enumerate(zip(hw.steps, hw.weights), start=1):
        left = gaps[w]
        after[i], after[left] = after[left], i
        before, behind = _SIDES[s]
        gaps[w:w + 1] = [left] * before + [i] * behind
    perm = []
    v = 0
    for _ in range(n):
        v = after[v]
        perm.append(v)
    return tuple(perm)


def _standard_cycle_form_oracle(perm):
    # the cycles field of the CycleForm record it returned
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
    return tuple(cycles)


def _permutation_from_cycles_oracle(cycles, n):
    out = [0] * n
    for cyc in cycles:
        for i, a in enumerate(cyc):
            out[a - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def _foata_oracle(perm):
    out = []
    for cyc in _standard_cycle_form_oracle(perm):
        out.extend(cyc)
    return tuple(out)


def _foata_inverse_oracle(perm):
    pieces = []
    best = 0
    for v in perm:
        if v > best:
            pieces.append([v])
            best = v
        else:
            pieces[-1].append(v)
    return _permutation_from_cycles_oracle(pieces, len(perm))


def _phi_step1_oracle(wip):
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


def _phi_step1_inverse_oracle(mp):
    tau, marks = mp.perm, mp.marks
    if not marks <= cycle_peaks(tau):
        bad = sorted(marks - cycle_peaks(tau))
        raise MarkNotCyclePeak(f"marked values {bad} are not cycle peaks")

    def key(col):
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


def _caps_two_loop_oracle(steps, weights, alphabet, closed):
    # the axis in the step loop, the weights in a loop of their own
    if not set(steps).issubset(alphabet):  # then name the first letter outside alphabet
        for i, s in enumerate(steps, start=1):
            if s not in alphabet:
                if s in STEP_RULES:
                    raise HorizontalStepPresent(f"level step at position {i}")
                raise ValidationError(f"unknown step letter {s!r} at step {i}")
    if len(steps) != len(weights):
        raise LengthMismatch(f"{len(steps)} steps but {len(weights)} weights")
    caps = []
    h = 0
    for s in steps:
        try:
            rise, drop = STEP_RULES[s]
        except KeyError:  # a non-str step sequence may hold "" or "UD", which pass the letter test
            raise ValidationError(f"unknown step letter {s!r} at step {len(caps) + 1}") from None
        caps.append(h - drop)
        h += rise
        if h < 0:
            raise HeightBelowZero(f"path dips below the axis after step {len(caps)}")
    if closed and h != 0:
        raise NotClosed(f"path ends at height {h}")
    for i, (w, cap) in enumerate(zip(weights, caps), start=1):
        if not (isinstance(w, int) and 0 <= w <= cap):  # fz_inverse indexes by weight
            raise WeightOutOfRange(i, f"weight {w} at step {i} outside 0..{cap}")
    return caps


def _caps_letter_set_oracle(steps, weights, alphabet, closed):
    # the two-loop version, but a letter is an item of set(alphabet), not a substring
    # of alphabet, so "" and "UD" in a list or tuple are named before any other check
    for i, s in enumerate(steps, start=1):
        if s not in set(alphabet):
            if s in STEP_RULES:
                raise HorizontalStepPresent(f"level step at position {i}")
            raise ValidationError(f"unknown step letter {s!r} at step {i}")
    return _caps_two_loop_oracle(steps, weights, alphabet, closed)


def _peak_valley_pairs_padded_oracle(perm):
    pairs, peak, prev, rose = [], 0, -math.inf, True
    for i, v in enumerate((*perm, math.inf)):  # prev = p[i], v = p[i+1]; rose: p[i-1] < p[i]
        if rose and prev > v:
            peak = i
        elif not rose and prev < v:
            pairs.append((peak, i))
        prev, rose = v, prev < v
    return tuple(pairs)


def _place_bars_comprehension_oracle(tau_tilde):
    word, marks = tau_tilde.perm, tau_tilde.marks
    out = [-v if pos % 2 == 0 else v for pos, v in enumerate(word, start=1)]
    for peak, valley in _peak_valley_pairs_padded_oracle(word):
        v = word[valley - 1]
        out[valley - 1] = -v if word[peak - 1] in marks else v
    return tuple(out)


def _unbar_comprehension_oracle(snake):
    word = tuple(abs(v) for v in snake)
    marks = frozenset(word[peak - 1] for peak, valley in _peak_valley_pairs_padded_oracle(word)
                      if snake[valley - 1] < 0)
    return MarkedPermutation(word, marks)


def _count_pat_31_2_index_oracle(perm, value):
    j = list(perm).index(value)
    return sum(1 for k in range(1, j) if perm[k] < value < perm[k - 1])


def _count_pat_2_31_index_oracle(perm, value):
    j = list(perm).index(value)
    n = len(perm)
    return sum(1 for k in range(j + 1, n - 1) if perm[k + 1] < value < perm[k])


def _snake_sign_pattern_all_oracle(snake):
    valleys = set(permcore.right_valleys(tuple(abs(v) for v in snake)))
    return all((v > 0) == (pos % 2 == 1)
               for pos, v in enumerate(snake, start=1) if pos not in valleys)

def _zigzags_oracle(n, values, slot, last_ok=lambda v: True):
    order = [(v, slot(v)) for v in sorted(values, key=str)]
    word = []
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


def _snakes_oracle(n):
    return _zigzags_oracle(n, [*range(-n, 0), *range(1, n + 1)], abs)


def _alternating_oracle(n):
    return _zigzags_oracle(n, range(1, n + 1), lambda v: v)


def _rcalt_oracle(n):
    size = 2 * n
    halves = _zigzags_oracle(n, range(1, size + 1), lambda v: min(v, size + 1 - v),
                             lambda v: (2 * v > size + 1) == (n % 2 == 1))
    return (half + tuple(size + 1 - v for v in reversed(half)) for half in halves)


def _wip3_oracle(n):
    order = sorted(range(1, n + 1), key=str)
    pi = []
    used = [False] * (n + 1)

    def rec(sigma, floor):
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


def _format_perm_oracle(perm):
    return " ".join(map(str, perm))


def _format_path_oracle(obj):
    return obj.steps + ";" + ",".join(map(str, obj.weights))


def _format_perms_oracle(perms):
    # the batch formatter that Family.text replaced for snakes, rcalt and altperm
    line = permcore.perm_template(len(perms[0]) if perms else 0) + "\n"
    return line * len(perms) % tuple(itertools.chain.from_iterable(perms))


def _format_paths_oracle(objs):
    # the same for lbp and laguerre
    line = paths._template(len(objs[0].weights) if objs else 0) + "\n"
    return line * len(objs) % tuple(itertools.chain.from_iterable((p.steps, *p.weights) for p in objs))


def _paths_oracle(n, alphabet, closed, make):
    # the path generator's order has no earlier version to compare with: every
    # valid weighted path, by brute force, sorted by its text
    objects = []
    for letters in itertools.product(alphabet, repeat=n):
        steps = "".join(letters)
        try:
            caps = _caps_oracle(steps, (0,) * n, alphabet, closed)
        except ValueError:
            continue
        objects += [make(steps, w) for w in itertools.product(*(range(c + 1) for c in caps))]
    return sorted(objects, key=_format_path_oracle)


# family -> (generator oracle, renderer oracle, largest n compared)
GENERATORS = {
    "snakes": (_snakes_oracle, _format_perm_oracle, 7),
    "wip3": (_wip3_oracle, lambda w: _format_perm_oracle(w.sigma) + " / " + _format_perm_oracle(w.pi), 7),
    "rcalt": (_rcalt_oracle, _format_perm_oracle, 7),
    "lbp": (lambda n: _paths_oracle(n, BALLOT_ALPHABET, False, LabeledBallotPath), _format_path_oracle, 7),
    "laguerre": (lambda n: _paths_oracle(n, MOTZKIN_ALPHABET, True, LaguerreHistory),
                 _format_path_oracle, 7),
    "altperm": (_alternating_oracle, _format_perm_oracle, 9),
}


def _zigzags_recursive(n, values, slot, last_ok=lambda v: True):
    order = [(v, slot(v)) for v in sorted(values, key=str)]
    prevs = (0, *(v for v, _ in order))
    tables = ({p: [(v, s) for v, s in order if v > p] for p in prevs},
              {p: [(v, s) for v, s in order if v < p] for p in prevs})
    last = {p: [(v, s) for v, s in tables[(n - 1) % 2][p] if last_ok(v)] for p in prevs}
    word = []
    used = [False] * (n + 1)

    def rec(i, prev):
        if i == n - 1:
            for v, s in last[prev]:
                if not used[s]:
                    yield (*word, v)
            return
        for v, s in tables[i % 2][prev]:
            if not used[s]:
                used[s] = True
                word.append(v)
                yield from rec(i + 1, v)
                word.pop()
                used[s] = False

    return rec(0, 0) if n else iter([()])


def _rcalt_recursive(n):
    size = 2 * n
    halves = _zigzags_recursive(n, range(1, size + 1), lambda v: min(v, size + 1 - v),
                                lambda v: (2 * v > size + 1) == (n % 2 == 1))
    return (half + tuple(map(operator.sub, itertools.repeat(size + 1), reversed(half)))
            for half in halves)


def _wip3_recursive(n):
    if n == 0:
        yield ThreeWIP((), ())
        return
    order = sorted(range(1, n + 1), key=str)
    pi = []
    used = [False] * (n + 1)

    def rec(sigma, floor):
        i = len(pi)
        if i == n - 1:
            for b in order:
                if not used[b] and max(sigma[i], b) >= floor:
                    yield ThreeWIP(sigma, (*pi, b))
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


def _labeled_paths_recursive(n, alphabet, closed, make):
    steps = []
    ranges = []

    def rec(h):
        remaining = n - len(steps)
        if closed and h > remaining:
            return
        if remaining == 0:
            word = "".join(steps)
            for weights in itertools.product(*ranges):
                yield make(word, weights)
            return
        for s in alphabet:
            rise, drop = STEP_RULES[s]
            if h < drop:
                continue
            steps.append(s)
            ranges.append(sorted(range(h - drop + 1), key=str))
            yield from rec(h + rise)
            ranges.pop()
            steps.pop()

    return rec(0)


# family -> (recursive generator, largest n compared)
RECURSIVE = {
    "snakes": (lambda n: _zigzags_recursive(n, [*range(-n, 0), *range(1, n + 1)], abs), 7),
    "wip3": (_wip3_recursive, 7),
    "rcalt": (_rcalt_recursive, 7),
    "lbp": (lambda n: _labeled_paths_recursive(n, "DU", False, LabeledBallotPath), 7),
    "laguerre": (lambda n: _labeled_paths_recursive(n, "DHTU", True, LaguerreHistory), 7),
    "altperm": (lambda n: _zigzags_recursive(n, range(1, n + 1), lambda v: v), 9),
}


def _zigzags_two_loop_oracle(n, values, slot, last_ok=lambda v: True):
    order = [(v, slot(v)) for v in sorted(values, key=str)]
    prevs = (0, *(v for v, _ in order))
    tables = ({p: [(v, s) for v, s in order if v > p] for p in prevs},
              {p: [(v, s) for v, s in order if v < p] for p in prevs})
    last = {p: [(v, s) for v, s in tables[(n - 1) % 2][p] if last_ok(v)] for p in prevs}
    if n < 3:
        yield from ([()], [(v,) for v, _ in last[0]],
                    [(u, w) for u, r in tables[0][0] for w, t in last[u] if r != t])[n]
        return
    word, used = [], [False] * (n + 1)
    stack = [(iter(tables[0][0]), 0)]  # the candidates left for an entry, the slot before it
    while stack:
        for v, s in stack[-1][0]:
            if not used[s]:
                break
        else:  # exhausted: back up and free the slot before (0, a spare, at the first entry)
            used[stack.pop()[1]] = False
            del word[-1:]
            continue
        if len(stack) < n - 2:
            used[s] = True
            word.append(v)
            stack.append((iter(tables[len(stack) % 2][v]), s))
            continue
        for u, r in tables[n % 2][v]:  # v is w_n-2: the last two entries in nested loops
            if not (used[r] or r == s):
                for w, t in last[u]:
                    if not (used[t] or t == r or t == s):
                        yield (*word, v, u, w)


def _rcalt_two_loop_oracle(n):
    size = 2 * n
    halves = _zigzags_two_loop_oracle(n, range(1, size + 1), lambda v: min(v, size + 1 - v),
                                      lambda v: (2 * v > size + 1) == (n % 2 == 1))
    mirror = [size + 1 - v for v in range(size + 1)].__getitem__
    return ((*half, *map(mirror, reversed(half))) for half in halves)


def _rcalt_half_mirroring_oracle(n):
    # rcalt before its table carried the mirror images: whole halves from the
    # search, each followed by its images in reverse order
    size = 2 * n
    leaves = families._zigzags(n, range(1, size + 1), lambda v: min(v, size + 1 - v),
                               lambda v: (2 * v > size + 1) == (n % 2 == 1))
    halves = (prefix + tail for prefix, tails, _ in leaves for tail in tails)
    mirror = [size + 1 - v for v in range(size + 1)].__getitem__
    return ((*half, *map(mirror, reversed(half))) for half in halves)


def _snakes_two_loop_oracle(n):
    return _zigzags_two_loop_oracle(n, [*range(-n, 0), *range(1, n + 1)], abs)


# family -> (flat search with the two-loop leaf, largest n compared in full, ceiling)
TWO_LOOP = {
    "snakes": (_snakes_two_loop_oracle, 8, 11),
    "rcalt": (_rcalt_two_loop_oracle, 8, 11),
    "altperm": (lambda n: _zigzags_two_loop_oracle(n, range(1, n + 1), lambda v: v), 10, 14),
}


# The text path before every searched family fed one consumer. altperm's search
# then took tails of four entries, filled by three nested loops; wip3 skipped
# sigma one whole permutation at a time and formatted 3-WIP objects in batches;
# lbp and laguerre filled one template per chunk of a step word's weight vectors.


def _zigzags_four_entry_oracle(n, values, slot):
    order = [(v, 1 << slot(v)) for v in sorted(values, key=str)]
    prevs = (0, *(v for v, _ in order))
    tables = ({p: [(v, b) for v, b in order if v > p] for p in prevs},
              {p: [(v, b) for v, b in order if v < p] for p in prevs})
    pad = dict.fromkeys(prevs, [(0, 0)])
    last_four = [tables[n % 2], tables[(n - 1) % 2]] * 2
    ends = [pad] * (4 - n) + last_four[max(4 - n, 0):]
    word, taken, suffixes, cut = [], 0, {}, max(4 - n, 0)
    stack = [(iter(tables[0][0] if n > 4 else [(0, 0)] * (n >= 0)), 0)]
    while stack:
        for v, b in stack[-1][0]:
            if not taken & b:
                break
        else:
            taken ^= stack.pop()[1]
            del word[-1:]
            continue
        if len(stack) < n - 4:
            taken |= b
            word.append(v)
            stack.append((iter(tables[len(stack) % 2][v]), b))
            continue
        prefix = (*word, v) if n > 4 else ()
        taken |= b
        for u, c in ends[0][v]:
            if taken & c:
                continue
            mask = taken | c
            tails = suffixes.get((u, mask))
            if tails is None:
                tails = suffixes[u, mask] = []
                for w, d in ends[1][u]:
                    if not mask & d:
                        for x, e in ends[2][w]:
                            if not (mask | d) & e:
                                for y, f in ends[3][x]:
                                    if not (mask | d | e) & f:
                                        tails.append((u, w, x, y)[cut:])
            for tail in tails:
                yield prefix + tail
        taken ^= b


def _alternating_four_entry_oracle(n):
    return _zigzags_four_entry_oracle(n, range(1, n + 1), lambda v: v)


def _wip3_permutation_filter_oracle(n):
    order = sorted(range(1, n + 1), key=str)
    if n <= 0:
        yield from [ThreeWIP((), ())] * (n == 0)
        return
    bounds, used = [(n + j + 1) // 2 for j in range(1, n + 1)], [False] * (n + 1)
    for sigma in itertools.permutations(order):
        maxima = list(itertools.accumulate(sigma, max))
        if not all(map(operator.le, maxima, bounds)):
            continue
        pi, stack = [], [(iter(order), 0, 0)]
        while stack:
            j = len(pi)
            candidates, floor, _ = stack[-1]
            for b in candidates:
                top = b if b > sigma[j] else sigma[j]
                if not (used[b] or top < floor
                        or 2 * top + (top == maxima[j]) + (top == b or used[top]) > n + j + 3):
                    break
            else:
                used[stack.pop()[2]] = False
                del pi[-1:]
                continue
            if j == n - 1:
                yield ThreeWIP(sigma, (*pi, b))
                continue
            used[b] = True
            pi.append(b)
            stack.append((iter(order), top, b))


def _format_wip3s_oracle(wips):
    # the batch formatter of wip3's text, with one template per batch
    n = len(wips[0].sigma) if wips else 0
    rows = itertools.chain.from_iterable(map(operator.attrgetter("sigma", "pi"), wips))
    template = permcore.perm_template(n) + " / " + permcore.perm_template(n)
    return (template + "\n") * len(wips) % tuple(itertools.chain.from_iterable(rows))


def _batches(objects, size=1024):
    return iter(lambda: list(itertools.islice(objects, size)), [])


@functools.lru_cache(maxsize=None)
def _wip3_earlier_text(n, count=None):
    # the permutation-filter oracle costs 1.3 s at n = 8 and 3 s before its first
    # object at n = 11, so the object and the text comparisons share one pass (its
    # first count objects) per n; 9 MiB of text in all
    objects = itertools.islice(_wip3_permutation_filter_oracle(n), count)
    return "".join(map(_format_wip3s_oracle, _batches(objects)))


def _path_text_oracle(words):
    for word, ranges in words:
        line = word + ";" + ",".join(["%d"] * len(word)) + "\n"
        for chunk in _batches(itertools.product(*ranges)):
            yield line * len(chunk) % tuple(itertools.chain.from_iterable(chunk))


# family -> (n -> the earlier text of size n, in pieces, largest n compared in full)
EARLIER_TEXT = {
    "snakes": (lambda n: map(_format_perms_oracle, _batches(_snakes_two_loop_oracle(n))), 8),
    "rcalt": (lambda n: map(_format_perms_oracle, _batches(_rcalt_two_loop_oracle(n))), 8),
    "altperm": (lambda n: map(_format_perms_oracle, _batches(_alternating_four_entry_oracle(n))), 10),
    "lbp": (lambda n: _path_text_oracle(families._labeled_paths(n, BALLOT_ALPHABET, False)), 8),
    "laguerre": (lambda n: _path_text_oracle(families._labeled_paths(n, MOTZKIN_ALPHABET, True)), 8),
    "wip3": (lambda n: [_wip3_earlier_text(n, None if n <= 8 else 20_000)], 8),
}


# k-th derivative of cos - sin at 0, by k mod 4
_COS_MINUS_SIN = (1, -1, -1, 1)
# k-th derivative of cos at 0 and of 1 + sin at 0, by k mod 4
_COS = (1, 0, -1, 0)
_ONE_PLUS_SIN = (0, 1, 0, -1)


def _springer_egf_oracle(m):
    # (cos - sin) * S = 1: S_n = -sum_{k=1..n} C(n,k) c_k S_{n-k}
    values = [1]
    for n in range(1, m + 1):
        acc = 0
        for k in range(1, n + 1):
            acc += math.comb(n, k) * _COS_MINUS_SIN[k % 4] * values[n - k]
        values.append(-acc)
    return tuple(values)


def _euler_sequence_oracle(m):
    # (tan + sec) * cos = 1 + sin
    values = [1]
    for n in range(1, m + 1):
        rhs = _ONE_PLUS_SIN[n % 4]
        acc = sum(
            math.comb(n, k) * _COS[k % 4] * values[n - k] for k in range(1, n + 1)
        )
        values.append(rhs - acc)
    return tuple(values)


# --- comparisons -------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), exc.args, getattr(exc, "index", None)


def _same_caps(steps, weights):
    # on a str, the two-loop version everywhere, and the three-pass one, which the
    # two-loop one matched on all these inputs, where the order of the checks decides;
    # on a list or tuple, the two-loop version with letters tested as items of set(alphabet)
    is_str = isinstance(steps, str)
    oracle = _caps_two_loop_oracle if is_str else _caps_letter_set_oracle
    for alphabet, closed in CONFIGS:
        got = _outcome(paths._caps, steps, weights, alphabet, closed)
        assert got == _outcome(oracle, steps, weights, alphabet, closed), (steps, weights)
        if isinstance(got, list):
            assert paths._mirror(steps, weights, got) == _mirror_oracle(steps, weights, got)
        elif is_str:
            assert got == _outcome(_caps_oracle, steps, weights, alphabet, closed), (steps, weights)


def _put(seq, i, item):
    return seq[:i] + item + seq[i + 1:]


def _mutants(steps, weights, caps, positions):
    """Copies of a valid path that break one check, or two at once, at the given positions."""
    for i in positions:
        for letter in "UDHTX":  # a bad letter, a level step, a dip or an unclosed end
            yield _put(steps, i, letter), weights
        for w in (-1, caps[i] + 1, 0.5, 1.0, True, False):  # out of range, float, bool
            yield steps, _put(weights, i, (w,))
            yield _put(steps, 0, "D"), _put(weights, i, (w,))  # a dip and a bad weight
            yield steps + "U", _put(weights, i, (w,)) + (0,)   # unclosed and a bad weight
        if i:
            yield _put(_put(steps, 0, "D"), i, "X"), weights   # a dip and a bad letter
            yield _put(_put(steps, i, "D"), 0, "H"), weights   # a level step and a dip
    yield steps, weights[:-1]                                  # lengths
    yield steps + "X", weights                                 # lengths and a bad letter


def _random_ballot(rng, n):
    steps, weights, h = "", [], 0
    for _ in range(n):
        step = "U" if h == 0 or rng.random() < 0.55 else "D"
        cap = h if step == "U" else h - 1
        steps += step
        weights.append(rng.randint(0, cap))
        h += 1 if step == "U" else -1
    return steps, tuple(weights)


def test_caps_and_mirror_match_the_oracles_on_every_path_up_to_n_7():
    for n in range(8):
        for obj in itertools.chain(enumerate_lbp(n), enumerate_laguerre(n)):
            _same_caps(obj.steps, obj.weights)


def test_caps_matches_the_oracle_on_every_short_word():
    values = (-1, 0, 1, 2, 0.5, 1.0, True)
    for n in range(4):
        for letters in itertools.product("UDHTX", repeat=n):
            steps = "".join(letters)
            for weights in itertools.product(values, repeat=n):
                _same_caps(steps, weights)
            _same_caps(steps, (0,) * (n + 1))
            _same_caps(steps, (0,) * (n - 1) if n else ())


def test_caps_matches_the_oracle_on_step_sequences_that_are_not_strings():
    # a list or tuple of letters; "" and "UD" are substrings of the alphabets but no letters
    for n in range(4):
        for letters in itertools.product(["U", "D", "H", "X", "", "UD"], repeat=n):
            for weights in itertools.product((0, 1), repeat=n):
                _same_caps(list(letters), weights)
                _same_caps(letters, weights)


@pytest.mark.parametrize("sequence", [list, tuple])
@pytest.mark.parametrize("alphabet", [BALLOT_ALPHABET, MOTZKIN_ALPHABET])
def test_caps_names_an_item_that_is_no_letter_before_the_other_checks(sequence, alphabet):
    # "" and "UD" are substrings of both alphabets; naming them comes before the dip
    # at step 1 of D, "" and before the three weights of U, "UD"
    for steps, weights in ((["D", ""], (0, 0)), (["U", "UD"], (0, 0, 0))):
        for closed in (False, True):
            with pytest.raises(ValidationError) as excinfo:
                paths._caps(sequence(steps), weights, alphabet, closed)
            assert type(excinfo.value) is ValidationError
            assert str(excinfo.value) == f"unknown step letter {steps[1]!r} at step 2"


def test_caps_matches_the_oracle_on_mutants_that_break_one_or_two_checks():
    for n in range(1, 5):
        for obj in itertools.chain(enumerate_lbp(n), enumerate_laguerre(n)):
            caps = _caps_oracle(obj.steps, obj.weights, MOTZKIN_ALPHABET, False)
            for steps, weights in _mutants(obj.steps, obj.weights, caps, range(n)):
                _same_caps(steps, weights)


def test_caps_matches_the_oracle_at_n_512():
    rng = random.Random(512)
    for _ in range(5):
        p = tuple(rng.sample(range(1, 513), 512))
        for steps, weights in (_random_ballot(rng, 512), (fz(p).steps, fz(p).weights)):
            _same_caps(steps, weights)
            caps = _caps_oracle(steps, weights, MOTZKIN_ALPHABET, False)
            for mutant in _mutants(steps, weights, caps, rng.sample(range(512), 3)):
                _same_caps(*mutant)


def test_caps_matches_the_oracles_at_n_4096():
    # a ballot path and a history, each under every config, and the ballot path
    # with one weight out of range and a dip at its first step
    rng = random.Random(4096)
    hw = fz(tuple(rng.sample(range(1, 4097), 4096)))
    steps, weights = _random_ballot(rng, 4096)
    i = rng.randrange(4096)
    for mutant in ((steps, weights), (hw.steps, hw.weights), (steps, _put(weights, i, (-1,))),
                   (_put(steps, 0, "D"), _put(weights, i, (-1,)))):
        _same_caps(*mutant)


def _words(n):
    # permutations, signed permutations and words with ties or entries below 1
    yield from itertools.permutations(range(1, n + 1))
    if n <= 5:
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                yield tuple(s * v for s, v in zip(signs, perm))
        yield from itertools.product((-1, 0, 1, 2), repeat=n)


@pytest.mark.parametrize("new, old", [
    (is_alternating, _is_alternating_oracle),
    (left_peaks, _left_peaks_oracle),
    (right_valleys, _right_valleys_oracle),
    (reverse_complement, _reverse_complement_oracle),
])
def test_one_line_kernels_match_the_oracles(new, old):
    for n in range(8):
        for word in _words(n):
            assert new(word) == old(word), word
            assert new(list(word)) == old(word), word
    rng = random.Random(512)
    for _ in range(10):
        perm = rng.sample(range(1, 513), 512)
        for i in range(511):  # a random down-up word: swap each pair out of shape
            if (perm[i] < perm[i + 1]) == (i % 2 == 0):
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
        for word in (tuple(perm), tuple(rng.sample(range(1, 513), 512))):
            assert new(word) == old(word)


def test_derivative_polynomials_match_the_egf_recurrences():
    # S_m and E_m for every m <= 300, and tables of m + 1 values
    assert springer_egf(300) == _springer_egf_oracle(300)
    assert euler_sequence(300) == _euler_sequence_oracle(300)
    for m in range(13):
        assert springer_egf(m) == _springer_egf_oracle(m)
        assert euler_sequence(m) == _euler_sequence_oracle(m)


def test_is_wip3_matches_the_oracle():
    for n in range(5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for sigma, pi in itertools.product(perms, repeat=2):
            assert is_wip3(sigma, pi) == _is_wip3_oracle(sigma, pi)
    assert is_wip3((1, 2), (1,)) == _is_wip3_oracle((1, 2), (1,)) is False
    assert is_wip3((1, 1), (1, 2)) == _is_wip3_oracle((1, 1), (1, 2)) is False


def test_fz_splices_match_the_slice_oracles():
    # the public maps, their unchecked cores and the oracles, on every object with
    # n <= 7 and on seeded random permutations, uniform and down-up, up to n = 4096
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            assert fz(p) == bijections._fz(p) == _fz_splice_oracle(p)
        for hw in enumerate_laguerre(n):
            assert fz_inverse(hw) == bijections._fz_inverse(hw) == _fz_inverse_splice_oracle(hw)
    rng = random.Random(512)
    for n, count in ((512, 10), (4096, 2)):
        for _ in range(count):
            uniform = rng.sample(range(1, n + 1), n)
            down_up = sorted(uniform[:2])[::-1] + uniform[2:]
            for i in range(1, n - 1):  # swap each pair out of down-up shape
                if (down_up[i] < down_up[i + 1]) == (i % 2 == 0):
                    down_up[i], down_up[i + 1] = down_up[i + 1], down_up[i]
            for p in (tuple(uniform), tuple(down_up)):
                hw = bijections._fz(p)
                assert fz(p) == hw == _fz_splice_oracle(p)
                assert fz_inverse(hw) == bijections._fz_inverse(hw) == _fz_inverse_splice_oracle(hw) == p


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    return main(argv, stdout=stdout, stderr=stderr), stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_generators_and_enumerate_match_the_oracles(family):
    generate, render, n_max = GENERATORS[family]
    for n in range(n_max + 1):
        want = list(generate(n))
        assert list(FAMILIES[family].enumerate(n)) == want, n
        code, out, err = _run(["enumerate", "--family", family, "--n", str(n)])
        assert (code, out, err) == (0, "".join(render(obj) + "\n" for obj in want), ""), n


def test_renderers_match_the_map_str_oracles():
    rng = random.Random(512)
    words = [()]
    for n in range(1, 6):
        for perm in itertools.permutations(range(1, n + 1)):
            words += (tuple(s * v for s, v in zip(signs, perm))
                      for signs in itertools.product((1, -1), repeat=n))
    for _ in range(10):
        perm = rng.sample(range(1, 513), 512)
        words += [tuple(perm), tuple(v if rng.random() < 0.5 else -v for v in perm)]
    for word in words:
        for seq in (word, list(word)):
            assert format_perm(seq) == _format_perm_oracle(word)
    objects = [LabeledBallotPath("", ()), LaguerreHistory("", ())]
    for n in range(1, 6):
        objects += [*enumerate_lbp(n), *enumerate_laguerre(n)]
    for _ in range(10):
        objects += [LabeledBallotPath(*_random_ballot(rng, 512)), fz(rng.sample(range(1, 513), 512))]
    for obj in objects:
        for weights in (obj.weights, list(obj.weights)):
            assert format_path(type(obj)(obj.steps, weights)) == _format_path_oracle(obj)


# each batch formatter and the families whose objects it formats
BATCHES = {_format_perms_oracle: ("snakes", "rcalt", "altperm"),
           _format_paths_oracle: ("lbp", "laguerre"), _format_wip3s_oracle: ("wip3",)}


def test_batch_formatters_match_the_single_ones():
    # one template filled by one % per batch, against one render per object
    rng = random.Random(4096)
    batches = {_format_perms_oracle: [[perm] * 3 for perm in ((), (1,), (-2, 1))],
               _format_paths_oracle: [[LabeledBallotPath("", ())], [LaguerreHistory("UD", (0, 0))] * 2],
               _format_wip3s_oracle: [[ThreeWIP((), ())]]}
    for lines, names in BATCHES.items():
        batches[lines] += [list(FAMILIES[name].generate(n)) for name in names for n in range(6)]
    batches[_format_perms_oracle].append([tuple(rng.sample(range(1, 513), 512)) for _ in range(5)])
    batches[_format_paths_oracle].append([fz(rng.sample(range(1, 513), 512)) for _ in range(5)])
    for lines, render in [(_format_perms_oracle, format_perm), (_format_paths_oracle, format_path),
                          (_format_wip3s_oracle, format_wip3)]:
        assert lines([]) == ""
        for objects in batches[lines]:
            assert lines(objects) == "".join(render(obj) + "\n" for obj in objects)
    # format_wip3 also renders rows of unequal lengths
    assert format_wip3(ThreeWIP((1, 2), (1,))) == "1 2 / 1"


@pytest.mark.parametrize("family", sorted(RECURSIVE))
def test_flat_generators_match_the_recursive_ones(family):
    recursive, n_max = RECURSIVE[family]
    for n in range(n_max + 1):
        flat = FAMILIES[family].generate(n)
        for count, (new, old) in enumerate(itertools.zip_longest(flat, recursive(n)), start=1):
            assert new == old and type(new) is type(old), (n, count, new, old)


# the enumerate workload's n per family
WORKLOAD_N = {"snakes": 8, "wip3": 7, "rcalt": 8, "lbp": 8, "laguerre": 8, "altperm": 11}


@pytest.mark.parametrize("family", sorted(WORKLOAD_N))
def test_generators_start_at_most_three_frames_per_object(family):
    # each object may cost one resumption of the search and a record's __init__;
    # the recursive searches cost 9-17. The zigzag searches fill a suffix table key
    # by one comprehension per tail position (and one per cut and mirror), and a key
    # serves many objects: 1.3 frames an object for snakes and rcalt, 2.0 for
    # altperm, whose five-entry keys each serve fewer
    objects = iter(FAMILIES[family].generate(WORKLOAD_N[family]))
    next(objects)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for _ in itertools.islice(objects, 2000):
            pass
    finally:
        sys.setprofile(previous)
    assert calls <= 3 * 2000, calls / 2000


def _same_objects(new, old, n):
    for count, (a, b) in enumerate(itertools.zip_longest(new, old), start=1):
        assert a == b and type(a) is type(b), (n, count, a, b)


@pytest.mark.parametrize("family", sorted(TWO_LOOP))
def test_suffix_tables_match_the_two_loop_leaf(family):
    two_loop, n_max, _ = TWO_LOOP[family]
    for n in range(-2, n_max + 1):  # no word has a negative length
        _same_objects(FAMILIES[family].generate(n), two_loop(n), n)


@pytest.mark.parametrize("family", sorted(TWO_LOOP))
def test_suffix_tables_match_the_two_loop_leaf_at_the_ceiling(family):
    # the largest n meets keys (w_n-3, three free slots) that no smaller n has
    two_loop, _, n = TWO_LOOP[family]
    assert FAMILIES[family].ceiling == n
    new = itertools.islice(FAMILIES[family].generate(n), 20_000)
    _same_objects(new, itertools.islice(two_loop(n), 20_000), n)


def test_mirrored_tables_match_the_half_mirroring_generator():
    for n in range(-2, 9):
        _same_objects(FAMILIES["rcalt"].generate(n), _rcalt_half_mirroring_oracle(n), n)
    n = FAMILIES["rcalt"].ceiling
    _same_objects(itertools.islice(FAMILIES["rcalt"].generate(n), 20_000),
                  itertools.islice(_rcalt_half_mirroring_oracle(n), 20_000), n)


# family -> the largest n whose whole text is compared
TEXT_N = {"snakes": 8, "rcalt": 8, "altperm": 10, "lbp": 7, "laguerre": 7, "wip3": 7}


def _rendered(family, objects):
    render = FAMILIES[family].render
    return "".join(render(obj) + "\n" for obj in objects)


@pytest.mark.parametrize("family", sorted(TEXT_N))
def test_text_matches_the_rendered_objects(family):
    fam = FAMILIES[family]
    batch = next(lines for lines, names in BATCHES.items() if family in names)
    for n in range(-2, TEXT_N[family] + 1):  # no object has a negative length
        objects = list(fam.enumerate(n))
        text = "".join(fam.text(n))
        assert text == _rendered(family, objects), n
        assert text == (batch(objects) if objects else ""), n


@pytest.mark.parametrize("family", sorted(TEXT_N))
def test_text_matches_the_rendered_objects_at_the_ceiling(family):
    # the largest n meets keys and weights that no smaller n has
    fam = FAMILIES[family]
    lines = itertools.chain.from_iterable(piece.splitlines(True) for piece in fam.text(fam.ceiling))
    assert ("".join(itertools.islice(lines, 20_000))
            == _rendered(family, itertools.islice(fam.enumerate(fam.ceiling), 20_000)))


def _same_pieces(pieces, want, chunk):
    # the pieces spell want, each holds chunk lines but the last, which holds 1..chunk
    at, counts = 0, []
    for piece in pieces:
        assert want.startswith(piece, at), (at, piece[:80])
        at += len(piece)
        counts.append(piece.count("\n"))
    assert at == len(want)
    assert counts[:-1] == [chunk] * (len(counts) - 1) and 0 < counts[-1:][0] <= chunk if counts else not want


def _first_lines(pieces, count):
    return "".join(itertools.islice(itertools.chain.from_iterable(p.splitlines(True) for p in pieces), count))


@pytest.mark.parametrize("family", sorted(EARLIER_TEXT))
def test_text_matches_the_earlier_text_at_every_chunk(monkeypatch, family):
    earlier, n_max = EARLIER_TEXT[family]
    for n in range(-2, n_max + 1):  # no object has a negative length
        want = "".join(earlier(n))
        for chunk in (1, 7, 1024):
            monkeypatch.setattr(families, "TEXT_CHUNK", chunk)
            _same_pieces(FAMILIES[family].text(n), want, chunk)


@pytest.mark.parametrize("family", sorted(EARLIER_TEXT))
def test_text_matches_the_earlier_text_at_the_ceiling(family):
    earlier, _ = EARLIER_TEXT[family]
    n = FAMILIES[family].ceiling
    assert _first_lines(FAMILIES[family].text(n), 20_000) == _first_lines(earlier(n), 20_000)


def test_pruned_sigma_search_matches_the_permutation_filter():
    # compared through their text, which names each 3-WIP once, and their types
    for n, count in [*((n, None) for n in range(-2, 9)), (11, 20_000)]:
        texts, types = [], set()
        for w in itertools.islice(FAMILIES["wip3"].generate(n), count):
            texts.append(format_wip3(w) + "\n")
            types.add((type(w), type(w.sigma), type(w.pi)))
        assert "".join(texts) == _wip3_earlier_text(n, count), n
        assert types <= {(ThreeWIP, tuple, tuple)}, n


def test_text_pieces_hold_at_most_the_chunk_bound(monkeypatch):
    # the all-U word of lbp at n = 11 alone has 11! weight vectors: its first
    # pieces come full, without the rest of its lines
    ranges = [tuple(sorted(range(h + 1), key=str)) for h in range(11)]
    pieces = families._text(families._path_lines(iter([("U" * 11, ranges)])))
    assert [piece.count("\n") for piece in itertools.islice(pieces, 3)] == [families.TEXT_CHUNK] * 3
    counts = [piece.count("\n") for piece in itertools.islice(FAMILIES["lbp"].text(11), 200)]
    assert len(counts) == 200 and min(counts) > 0 and max(counts) <= families.TEXT_CHUNK
    monkeypatch.setattr(families, "TEXT_CHUNK", 7)
    for name, fam in FAMILIES.items():
        counts = [piece.count("\n") for piece in itertools.islice(fam.text(TEXT_N[name]), 200)]
        assert len(counts) == 200 and min(counts) > 0 and max(counts) <= 7, (name, counts)
    # the first sigma at n = 11 has 510 pis: its texts go out 7 at a time, one head
    leaves = list(itertools.islice(families._wip3_lines(11), 3))
    assert [len(tails) for _, tails, _ in leaves] == [7] * 3 and len({id(h) for h, _, _ in leaves}) == 1


# Worst case of one _zigzags call's suffix table, its tails d entries long (d = 4
# for snakes and rcalt, 5 for altperm). It has at most |values| C(n, d - 1) keys:
# w_n-d+1 and the slots taken, which leave d - 1 free. The last d - 1 entries of
# a key's suffixes run down-up or up-down in the same way for every suffix, so
# their order is one of the E_d-1 alternating orders of d - 1 values (E_3 = 2:
# w_n-1 is the least or the greatest of three, and the other two take the ends in
# either order; E_4 = 5), and each entry takes one of the m values of its slot
# (2 for snakes and rcalt, 1 for altperm): a key lists at most E_d-1 m^(d-1)
# suffixes. A key costs at most KEY_BYTES (its 2-tuple, the mask, the list
# header and its share of the dict) and a suffix SUFFIX_BYTES (a 4-tuple of small
# ints and its list slot), ENTRY_BYTES more per entry beyond four (altperm's fifth
# entry, rcalt's four mirror images). The candidate tables add 3 (|values| + 1)^2
# pairs at most. The text adds TEXT_KEY_BYTES per key (a list and its share of a
# dict) and TEXT_BYTES per suffix (a str of at most 4 characters per entry and
# its list slot), and a piece of TEXT_CHUNK lines, twice while it is joined.
# Filled by hand with every key, snakes at n = 11 measured 2.5 MiB of table and
# 2.0 MiB of texts under tracemalloc (2640 keys, 26,400 suffixes), rcalt at
# n = 11 2.6 and 1.7 MiB (2640 keys, 18,810 suffixes). altperm at n = 14, with
# five-entry tails, measured 4.4 MiB of table and 3.9 MiB of texts (10,010 keys,
# 32,032 suffixes, 5 at most under one key); with four-entry tails it measured
# 0.8 and 0.9 MiB (4004 keys, 5005 suffixes). The text's table holds the texts in
# place of the tuples, so the bound, which counts both, is loose for the text.
KEY_BYTES, SUFFIX_BYTES, PAIR_BYTES = 400, 96, 96
ENTRY_BYTES, TEXT_KEY_BYTES, TEXT_BYTES = 8, 200, 128
ALTERNATING_ORDERS = {3: 2, 4: 5}  # E_3, E_4


def _table_bound(n, m, entries, depth, text):
    values = m * n
    key = KEY_BYTES + TEXT_KEY_BYTES * text
    suffix = SUFFIX_BYTES + ENTRY_BYTES * (entries - 4) + TEXT_BYTES * text
    pieces = 2 * families.TEXT_CHUNK * (4 * 2 * n + 64) * text
    suffixes = ALTERNATING_ORDERS[depth - 1] * m ** (depth - 1)
    table = values * math.comb(n, depth - 1) * (key + suffixes * suffix)
    return table + 3 * (values + 1) ** 2 * PAIR_BYTES + pieces


def _peak(items, count):
    tracemalloc.start()
    try:
        drained = sum(1 for _ in itertools.islice(items, count))
        return drained, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# zigzag family -> (entries of a tail in its table, entries searched by the table's loop)
TAILS = {"snakes": (4, 4), "altperm": (5, 5), "rcalt": (8, 4)}
FAMILY_OF = {enumerate_snakes: "snakes", enumerate_alternating: "altperm", enumerate_rcalt: "rcalt"}


@pytest.mark.parametrize("generate, n, m, objects", [(enumerate_snakes, 11, 2, 200_000),
                                                     (enumerate_alternating, 14, 1, 50_000),
                                                     (enumerate_rcalt, 11, 2, 200_000)])
def test_suffix_table_stays_within_its_worst_case(generate, n, m, objects):
    bound = _table_bound(n, m, *TAILS[FAMILY_OF[generate]], text=False)
    drained, peak = _peak(generate(n), objects)
    assert drained == objects
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("family, n, m, lines", [("snakes", 11, 2, 200_000), ("altperm", 14, 1, 50_000),
                                                 ("rcalt", 11, 2, 200_000)])
def test_suffix_table_and_tail_texts_stay_within_their_worst_case(family, n, m, lines):
    bound = _table_bound(n, m, *TAILS[family], text=True)
    drained, peak = _peak(FAMILIES[family].text(n), lines // families.TEXT_CHUNK)
    assert drained == lines // families.TEXT_CHUNK
    assert peak <= bound, (peak, bound)


def test_peak_valley_pairs_match_left_peaks_zipped_with_right_valleys():
    words = [perm for n in range(9) for perm in itertools.permutations(range(1, n + 1))]
    for n in range(6):  # signed permutations: distinct entries, as _unbar passes them
        words += [tuple(s * v for s, v in zip(signs, perm))
                  for perm in itertools.permutations(range(1, n + 1))
                  for signs in itertools.product((1, -1), repeat=n)]
    rng = random.Random(512)
    words += [tuple(rng.sample(range(1, 513), 512)) for _ in range(10)]
    for word in words:
        assert peak_valley_pairs(word) == tuple(zip(left_peaks(word), right_valleys(word))), word


def test_foata_walks_match_the_cycle_form_oracles():
    # every permutation with n <= 8, then seeded uniform ones at n = 512 and 4096;
    # for n <= 6 the oracle's cycle form is held to its shape as well
    for n in range(9):
        for p in itertools.permutations(range(1, n + 1)):
            assert foata(p) == _foata_oracle(p), p
            assert foata_inverse(p) == _foata_inverse_oracle(p), p
            if n <= 6:
                cycles = _standard_cycle_form_oracle(p)
                assert sorted(v for cyc in cycles for v in cyc) == list(range(1, n + 1))
                assert all(cyc[0] == max(cyc) for cyc in cycles)
                assert [cyc[0] for cyc in cycles] == sorted(cyc[0] for cyc in cycles)
    rng = random.Random(512)
    for n, count in ((512, 10), (4096, 2)):
        for _ in range(count):
            p = tuple(rng.sample(range(1, n + 1), n))
            assert foata(p) == _foata_oracle(p)
            assert foata_inverse(p) == _foata_inverse_oracle(p)
            assert foata_inverse(foata(p)) == p


def test_foata_walks_end_on_words_that_are_not_permutations():
    # every word of length n <= 4 over -n-1..n+1: a permutation maps to n entries,
    # any other word raises ValueError (an IndexError fails the test), within a
    # budget that a walk looping back to a value it never revisits would exceed
    def expire(signum, frame):
        raise TimeoutError("a foata walk did not end")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        for n in range(5):
            for word in itertools.product(range(-n - 1, n + 2), repeat=n):
                for fn in (foata, foata_inverse):
                    if permcore.is_permutation(word):
                        out = fn(word)
                        assert isinstance(out, tuple) and len(out) == n, (fn.__name__, word)
                    else:
                        with pytest.raises(ValueError):
                            fn(word)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _mark_sets(n):
    values = range(n + 2)
    return itertools.chain.from_iterable(
        map(frozenset, itertools.combinations(values, r)) for r in range(n + 3))


def test_phi_step1_passes_match_the_cycle_peak_and_sort_oracles():
    # phi_step1 on every 3-WIP with n <= 7; phi_step1_inverse on every permutation
    # with n <= 5 under every mark set in {0..n+1}: the same value, or the same
    # exception class and message
    for n in range(8):
        for wip in FAMILIES["wip3"].enumerate(n):
            assert bijections.phi_step1(wip) == _phi_step1_oracle(wip), wip
    for n in range(6):
        for p in itertools.permutations(range(1, n + 1)):
            for marks in _mark_sets(n):
                mp = MarkedPermutation(p, marks)
                assert (_outcome(bijections.phi_step1_inverse, mp)
                        == _outcome(_phi_step1_inverse_oracle, mp)), mp
    # seeded permutations with half their cycle peaks marked, then also the
    # least value above 1 that is no cycle peak
    rng = random.Random(512)
    for n, count in ((512, 10), (4096, 2)):
        for _ in range(count):
            p = tuple(rng.sample(range(1, n + 1), n))
            peaks = cycle_peaks(p)
            mp = MarkedPermutation(p, frozenset(rng.sample(sorted(peaks), len(peaks) // 2)))
            wip = bijections.phi_step1_inverse(mp)
            assert wip == _phi_step1_inverse_oracle(mp)
            assert bijections.phi_step1(wip) == _phi_step1_oracle(wip) == mp
            other = next(k for k in range(2, n + 1) if k not in peaks)  # 1 never is one
            bad = MarkedPermutation(p, mp.marks | {other})
            assert (_outcome(bijections.phi_step1_inverse, bad)
                    == _outcome(_phi_step1_inverse_oracle, bad))


def test_phi_step1_inverse_rejects_words_that_are_not_permutations():
    # every word of length n <= 4 over -n-1..n+1 that is not a permutation, with
    # no mark, every mark in {0..n+1} at once, or one of them: ValueError, where
    # the sort and cycle_peaks version could raise IndexError
    for n in range(5):
        mark_sets = [frozenset(), frozenset(range(n + 2)), *(frozenset({k}) for k in range(n + 2))]
        for word in itertools.product(range(-n - 1, n + 2), repeat=n):
            if permcore.is_permutation(word):
                continue
            for marks in mark_sets:
                with pytest.raises(ValueError):
                    bijections.phi_step1_inverse(MarkedPermutation(word, marks))


# --- the kernels of the heavy verify rows ---------------------------------------

def _snakes_up_to(n_max):
    return [snake for n in range(n_max + 1) for snake in FAMILIES["snakes"].enumerate(n)]


def _random_signed_words(rng, n):
    """A down-up word of 1..n signed as a snake is, with random signs at its right
    valleys, and the same word with one entry's sign flipped."""
    word = rng.sample(range(1, n + 1), n)
    for i in range(n - 1):  # swap each pair out of down-up shape
        if (word[i] < word[i + 1]) == (i % 2 == 0):
            word[i], word[i + 1] = word[i + 1], word[i]
    signed = [-v if pos % 2 == 0 else v for pos, v in enumerate(word, start=1)]
    for q in right_valleys(word):
        signed[q - 1] *= rng.choice((1, -1))
    flipped = list(signed)
    flipped[rng.randrange(n)] *= -1
    return tuple(signed), tuple(flipped)


def _large_inputs():
    """Seeded permutations and signed words at n = 512 and 4096."""
    rng = random.Random(512)
    for n, count in ((512, 5), (4096, 2)):
        for _ in range(count):
            yield rng, tuple(rng.sample(range(1, n + 1), n)), _random_signed_words(rng, n)


def _same_values(new, old, inputs, apply=map):
    """new and old agree on every input (on every argument tuple with
    apply=itertools.starmap); the first input where they differ is named."""
    inputs = list(inputs)
    got, want = list(apply(new, inputs)), list(apply(old, inputs))
    if got != want:
        first = next(x for x, a, b in zip(inputs, got, want) if a != b)
        pytest.fail(f"{new.__name__} differs from {old.__name__} on {first!r}")


def test_peak_valley_pairs_match_the_padded_oracle():
    # every permutation with n <= 8, which covers the relative order of every snake
    # with n <= 8, and seeded words at n = 512 and 4096, also as lists
    perms = itertools.chain.from_iterable(itertools.permutations(range(1, n + 1)) for n in range(9))
    _same_values(peak_valley_pairs, _peak_valley_pairs_padded_oracle, perms)
    words = []
    for _, p, signed in _large_inputs():
        words += [p, *signed]
    _same_values(peak_valley_pairs, _peak_valley_pairs_padded_oracle, words)
    _same_values(peak_valley_pairs, _peak_valley_pairs_padded_oracle, map(list, words))


def test_unbar_and_place_bars_match_the_comprehension_oracles():
    # unbar on every snake with n <= 7 and on seeded signed words; place_bars on
    # what unbar gives and on every permutation with n <= 6, with no mark and with
    # its left peak values marked
    marked = []
    for n in range(7):
        for p in itertools.permutations(range(1, n + 1)):
            peaks = frozenset(p[i - 1] for i in left_peaks(p))
            marked += [MarkedPermutation(p, frozenset()), MarkedPermutation(p, peaks)]
    snakes = _snakes_up_to(7)
    for rng, p, signed in _large_inputs():
        snakes += signed
        marked.append(MarkedPermutation(p, frozenset(rng.sample(p, len(p) // 3))))
    _same_values(bijections.unbar, _unbar_comprehension_oracle, snakes)
    _same_values(bijections.place_bars, _place_bars_comprehension_oracle,
                 marked + list(map(bijections.unbar, snakes)))


COUNTS = [(permcore.count_pat_31_2_at, _count_pat_31_2_index_oracle),
          (permcore.count_pat_2_31_at, _count_pat_2_31_index_oracle)]


def test_pattern_counts_match_the_index_oracles():
    # at each value of every permutation with n <= 7 and of every signed
    # permutation with n <= 4, also as a list, and of seeded permutations at
    # n = 512 and 4096 at sampled values; at values that a word misses, the same
    # ValueError as list.index
    signed = [tuple(s * v for s, v in zip(signs, p)) for n in range(5) for p in
              itertools.permutations(range(1, n + 1)) for signs in itertools.product((1, -1), repeat=n)]
    words = [p for n in range(8) for p in itertools.permutations(range(1, n + 1))] + signed
    cases = [(word, value) for word in words for value in word]
    cases += [(list(word), value) for word in signed for value in word]
    for rng, p, _ in _large_inputs():
        cases += [(p, value) for value in [p[0], p[-1], *rng.sample(p, 20)]]
    for new, old in COUNTS:
        _same_values(new, old, cases, apply=itertools.starmap)
    misses = [(word, value) for word in words for value in (0, len(word) + 1)]
    misses += [(list(word), -len(word) - 1) for word in signed]
    for word, value in misses:
        for new, old in COUNTS:
            assert _outcome(new, word, value) == _outcome(old, word, value), (new.__name__, word, value)


def test_snake_sign_pattern_matches_the_all_oracle():
    # every snake with n <= 7, every word over -n..n with n <= 5 (zeros and ties
    # included) and seeded signed words at n = 512 and 4096, right or with one
    # sign flipped
    words = _snakes_up_to(7)
    for n in range(6):
        words += itertools.product(range(-n, n + 1), repeat=n)
    for _, _, signed in _large_inputs():
        words += signed
    _same_values(verify._snake_sign_pattern, _snake_sign_pattern_all_oracle, words)

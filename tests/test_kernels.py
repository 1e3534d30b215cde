"""Each fast kernel of src/ against its one reference.

A kernel's reference is a plain reading of its docstring, written apart from
the kernel: the three-pass _caps (letters, heights, weights), the recursive
zigzag and path searches, the permutation-filter 3-WIP search, map(str)
renderers, fz by the runs of larger values and fz_inverse by placeholder
tokens, the k-th peak and valley pairing of phi's step 3, cycle forms for
foata, list.index counts and the sentinel definitions of peaks and valleys.
Each is compared with its kernel on every object up to a size, on words that
the kernel must reject in the same way (exception class, message and args),
and on seeded inputs at n = 512 and 4096. The searches are compared object by
object, types included, and through Family.text, one piece a search leaf,
for every n up to 8 (altperm 10) and for the first 20,000 objects and lines at
each family's ceiling; each reference runs once per size and run. CHANGES.md
lists the kernels, their references and the inputs.

The tests keep the names and the inputs of the tests that held the earlier
references; each compares its inputs with the kernel's one reference.
"""

import functools
import hashlib
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
    validate_wip3,
)
from springerbij.paths import (
    BALLOT_ALPHABET,
    MOTZKIN_ALPHABET,
    LabeledBallotPath,
    LaguerreHistory,
    format_path,
)
from springerbij.permcore import (
    MarkedPermutation,
    cycle_peaks,
    foata,
    foata_inverse,
    format_perm,
    is_alternating,
    left_peaks,
    reverse_complement,
    right_valleys,
)

from test_benchmark_names import _literal

# (alphabet, closed) of every caller of _caps: labeled ballot paths, halve_rc_fixed,
# weight_caps and Laguerre histories
CONFIGS = [(BALLOT_ALPHABET, False), (BALLOT_ALPHABET, True),
           (MOTZKIN_ALPHABET, False), (MOTZKIN_ALPHABET, True)]


# --- the references --------------------------------------------------------------

_RISE = {"U": 1, "D": -1, "H": 0, "T": 0}
_FLIP = {"U": "D", "D": "U", "H": "H", "T": "T"}


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
    # three passes: the letters, the heights through height_profile, the weights. A
    # letter is one item of alphabet, so "" and "UD" in a list or tuple are none
    letters = set(alphabet)
    for i, s in enumerate(steps, start=1):
        if s not in letters:
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
    # the sentinels written out; p[0] = -inf lets position 1 qualify whenever
    # p[1] > p[2], as p[0] = 0 does for entries of 1..n, also for entries below 1
    ext = (-math.inf, *perm, math.inf)
    return tuple(i for i in range(1, len(perm) + 1) if ext[i - 1] < ext[i] > ext[i + 1])


def _right_valleys_oracle(perm):
    ext = (-math.inf, *perm, math.inf)
    return tuple(i for i in range(1, len(perm) + 1) if ext[i - 1] > ext[i] < ext[i + 1])


def _reverse_complement_oracle(perm):
    # entry i is n + 1 - p[n + 1 - i]
    n = len(perm)
    return tuple(n + 1 - perm[n - i] for i in range(1, n + 1))


def _is_wip3_oracle(sigma, pi):
    if len(sigma) != len(pi):
        return False
    if not (permcore.is_permutation(sigma) and permcore.is_permutation(pi)):
        return False
    maxima = [max(a, b) for a, b in zip(sigma, pi)]
    return all(maxima[i] <= maxima[i + 1] for i in range(len(maxima) - 1))


# (a placeholder left of i, one right of i) -> i's step
_STEP = {(True, True): "U", (False, True): "H", (False, False): "D", (True, False): "T"}


def _fz_oracle(perm):
    # i's step is its local shape under p[0] = 0 and p[n+1] = +inf: a placeholder on
    # each side where the neighbour is larger. Its weight is the number of runs of
    # values above i that end left of it: the index of i's run among the runs of
    # values >= i, whose starts a list keeps, each i splitting or closing its own
    word = tuple(perm)
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
    return LaguerreHistory("".join(steps), tuple(weights))


def _fz_inverse_oracle(hw):
    # from one placeholder (None), each step puts its block in place of the
    # (w+1)-th placeholder, with 0 standing for the new value; one is left over
    blocks = {"U": (None, 0, None), "H": (0, None), "D": (0,), "T": (None, 0)}
    tokens = [None]
    for i, (s, w) in enumerate(zip(hw.steps, hw.weights), start=1):
        at = tokens.index(None)
        for _ in range(w):
            at = tokens.index(None, at + 1)
        tokens[at:at + 1] = [i if tok == 0 else tok for tok in blocks[s]]
    tokens.remove(None)
    return tuple(tokens)


def _standard_cycle_form_oracle(perm):
    # each cycle rotated to its maximum, the cycles sorted by their maxima
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


def _foata_oracle(perm):
    return tuple(v for cyc in _standard_cycle_form_oracle(perm) for v in cyc)


def _foata_inverse_oracle(perm):
    # cut before each left-to-right maximum; each piece is a cycle
    pieces = []
    best = 0
    for v in perm:
        if v > best:
            pieces.append([v])
            best = v
        else:
            pieces[-1].append(v)
    out = [0] * len(perm)
    for cyc in pieces:
        for i, a in enumerate(cyc):
            out[a - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


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
    # every value tried at every position in text order, a slot taken once
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
    # each sigma in text order whose prefix maxima m_j have 2 m_j <= n + j + 1, then a
    # pi search under the floor of the column maxima and the count of larger values
    # left; with the floor alone the search takes 7 s at n = 8
    order = sorted(range(1, n + 1), key=str)
    if n <= 0:
        yield from [ThreeWIP((), ())] * (n == 0)
        return
    bounds, used = [(n + j + 1) // 2 for j in range(1, n + 1)], [False] * (n + 1)
    for sigma in itertools.permutations(order):
        if not all(map(operator.le, itertools.accumulate(sigma, max), bounds)):
            continue
        maxima = list(itertools.accumulate(sigma, max))
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


def _paths_oracle(n, alphabet, closed, make):
    # the step words in letter order, a step taken only where its weight range is not
    # empty and, for a closed path, only if the axis is still in reach; each word's
    # paths are the product of its text-ordered ranges
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
        for s in sorted(alphabet):
            cap = h if s in ("U", "H") else h - 1
            if cap < 0:
                continue
            steps.append(s)
            ranges.append(sorted(range(cap + 1), key=str))
            yield from rec(h + _RISE[s])
            ranges.pop()
            steps.pop()

    return rec(0) if n >= 0 else iter(())


def _format_perm_oracle(perm):
    return " ".join(map(str, perm))


def _format_path_oracle(obj):
    return obj.steps + ";" + ",".join(map(str, obj.weights))


def _format_wip3_oracle(wip):
    return _format_perm_oracle(wip.sigma) + " / " + _format_perm_oracle(wip.pi)


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


# family -> (the reference of its search, the reference's renderer, largest n compared in full)
SEARCHES = {
    "snakes": (_snakes_oracle, _format_perm_oracle, 8),
    "rcalt": (_rcalt_oracle, _format_perm_oracle, 8),
    "altperm": (_alternating_oracle, _format_perm_oracle, 10),
    "wip3": (_wip3_oracle, _format_wip3_oracle, 8),
    "lbp": (lambda n: _paths_oracle(n, "UD", False, LabeledBallotPath), _format_path_oracle, 8),
    "laguerre": (lambda n: _paths_oracle(n, "UDHT", True, LaguerreHistory), _format_path_oracle, 8),
}
ZIGZAGS = ["altperm", "rcalt", "snakes"]
CEILING_COUNT = 20_000  # objects and lines compared at each family's ceiling


# --- comparisons -------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), exc.args, getattr(exc, "index", None)


def _same_caps(steps, weights):
    for alphabet, closed in CONFIGS:
        got = _outcome(paths._caps, steps, weights, alphabet, closed)
        assert got == _outcome(_caps_oracle, steps, weights, alphabet, closed), (steps, weights)
        if isinstance(got, list):
            assert paths._mirror(steps, weights, got) == _mirror_oracle(steps, weights, got)


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


def _fz_draws():
    """Seeded permutations, uniform and down-up: ten of each at n = 512, two at 4096."""
    rng = random.Random(512)
    for n, count in ((512, 10), (4096, 2)):
        for _ in range(count):
            uniform = rng.sample(range(1, n + 1), n)
            down_up = sorted(uniform[:2])[::-1] + uniform[2:]
            for i in range(1, n - 1):  # swap each pair out of down-up shape
                if (down_up[i] < down_up[i + 1]) == (i % 2 == 0):
                    down_up[i], down_up[i + 1] = down_up[i + 1], down_up[i]
            yield tuple(uniform)
            yield tuple(down_up)


def _same_fz(perms):
    # the public maps and the unchecked cores that the composites call
    for p in perms:
        hw = _fz_oracle(p)
        assert fz(p) == bijections._fz(p) == hw, p
        assert fz_inverse(hw) == bijections._fz_inverse(hw) == _fz_inverse_oracle(hw) == p, p


def test_fz_splices_match_the_slice_oracles():
    # the draws at n = 4096 (tests/test_bijections.py compares the smaller inputs)
    _same_fz(p for p in _fz_draws() if len(p) == 4096)


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    return main(argv, stdout=stdout, stderr=stderr), stdout.getvalue(), stderr.getvalue()


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
    # format_wip3 also renders rows of unequal lengths
    for wip in [ThreeWIP((), ()), ThreeWIP((1, 2), (1,)), *FAMILIES["wip3"].generate(5)]:
        assert format_wip3(wip) == _format_wip3_oracle(wip)


# --- the searches: objects and Family.text against the references ---------------

def _shapes(objects):
    """The set of the objects' types and, for records, of each field's types."""
    fields = objects[0]._fields if objects and type(objects[0]) is not tuple else ()
    return (set(map(type, objects)),
            *(set(map(type, map(operator.attrgetter(field), objects))) for field in fields))


def _lines(render, objects):
    return "\n".join(map(render, objects)) + "\n" if objects else ""


@functools.lru_cache(maxsize=None)
def _reference(family, n, count):
    """The text of the reference's first count objects of size n (all with None), a
    line each, and their _shapes; made once per run, about 45 MiB of text in all."""
    oracle, render, _ = SEARCHES[family]
    objects = list(itertools.islice(oracle(n), count))
    return _lines(render, objects), _shapes(objects)


def _first_difference(got, want):
    pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
    return next((line, a, b) for line, (a, b) in enumerate(pairs, start=1) if a != b)


def _same_objects(family, ns, count=None):
    # the family's objects of each n in ns (the first count) are the reference's,
    # compared through their text, which the family's renderer writes as the
    # reference's does, and their types
    fam = FAMILIES[family]
    for n in ns:
        objects = list(itertools.islice(fam.generate(n), count))
        got, (want, shapes) = _lines(fam.render, objects), _reference(family, n, count)
        assert got == want, (family, n, _first_difference(got, want))
        assert _shapes(objects) == shapes, (family, n)


def _same_pieces(pieces, want):
    # the pieces spell want, and each is whole lines: not empty, ended by a newline
    pieces = list(pieces)
    got = "".join(pieces)
    assert got == want, _first_difference(got, want)
    assert all(piece.endswith("\n") for piece in pieces)


def _first_lines(pieces, count):
    return "".join(itertools.islice(itertools.chain.from_iterable(p.splitlines(True) for p in pieces), count))


@pytest.mark.parametrize("family", sorted(SEARCHES))
def test_generators_and_enumerate_match_the_oracles(family):
    # the enumerate command at every n below the largest
    for n in range(SEARCHES[family][2]):
        assert _run(["enumerate", "--family", family, "--n", str(n)]) == (0, _reference(family, n, None)[0], ""), n


@pytest.mark.parametrize("family", sorted(SEARCHES))
def test_flat_generators_match_the_recursive_ones(family):
    # the objects at every n below the largest
    _same_objects(family, range(SEARCHES[family][2]))


@pytest.mark.parametrize("family", ZIGZAGS)
def test_suffix_tables_match_the_two_loop_leaf(family):
    # the objects at the largest n, and none at n = -1 and -2
    _same_objects(family, (-2, -1, SEARCHES[family][2]))


@pytest.mark.parametrize("family", ZIGZAGS)
def test_suffix_tables_match_the_two_loop_leaf_at_the_ceiling(family):
    # the largest n meets keys (w_n-3, three free slots) that no smaller n has
    _same_objects(family, [FAMILIES[family].ceiling], CEILING_COUNT)


def test_pruned_sigma_search_matches_the_permutation_filter():
    # the objects at the largest n, none below 0, and the first 20,000 at the ceiling
    _same_objects("wip3", (-2, -1, SEARCHES["wip3"][2]))
    _same_objects("wip3", [FAMILIES["wip3"].ceiling], CEILING_COUNT)


@pytest.mark.parametrize("family", sorted(SEARCHES))
def test_text_matches_the_rendered_objects(family):
    # Family.text of every n up to the largest (none below 0)
    for n in range(-2, SEARCHES[family][2] + 1):
        _same_pieces(FAMILIES[family].text(n), _reference(family, n, None)[0])


@pytest.mark.parametrize("family", sorted(SEARCHES))
def test_text_matches_the_rendered_objects_at_the_ceiling(family):
    # the largest n meets keys and weights that no smaller n has
    n = FAMILIES[family].ceiling
    assert _first_lines(FAMILIES[family].text(n), CEILING_COUNT) == _reference(family, n, CEILING_COUNT)[0]


# the enumerate workload's n and lines per family
WORKLOAD_N = {family: n for family, n, _, _ in _literal("run", "ENUMERATE_CALLS")["full"]}
WORKLOAD_LINES = {family: lines for family, _, lines, _ in _literal("run", "ENUMERATE_CALLS")["full"]}
# the leaves of each text search at the workload's n: one per walked zigzag prefix,
# one per wip3 pi prefix, one per path word and weights before a tail of at least
# TAIL_LINES lines; a search or a Family.text that splits its leaves again fails here
TEXT_LEAVES = {"snakes": 3907, "rcalt": 5489, "altperm": 26586, "laguerre": 2594, "lbp": 2323, "wip3": 8600}


@pytest.mark.parametrize("family", sorted(TEXT_LEAVES))
def test_text_searches_hand_out_few_full_leaves(family):
    counts = [piece.count("\n") for piece in FAMILIES[family].text(WORKLOAD_N[family])]
    assert len(counts) == TEXT_LEAVES[family]
    assert sum(counts) == WORKLOAD_LINES[family]


# the moves of each zigzag walk at the workload's n: the walk stops at w_n-depth-1, and
# the search's own loop fills w_n-depth, so a walk that fills it too fails here
WALK_MOVES = {"snakes": 93, "rcalt": 129, "altperm": 2047}


@pytest.mark.parametrize("family", sorted(WALK_MOVES))
def test_zigzag_walks_stop_one_entry_before_their_leaves(family, monkeypatch):
    moves, walk = 0, families._walk

    def counted(n, start, step):
        def counting(*state):
            nonlocal moves
            moves += 1
            return step(*state)
        return walk(n, start, counting)

    monkeypatch.setattr(families, "_walk", counted)
    assert sum(1 for _ in FAMILIES[family].text(WORKLOAD_N[family])) == TEXT_LEAVES[family]
    assert moves == WALK_MOVES[family]


@pytest.mark.parametrize("family", sorted(WORKLOAD_N))
def test_generators_start_at_most_three_frames_per_object(family):
    # each object may cost one resumption of the search and a record's __init__;
    # the recursive searches cost 9-17. The zigzag searches fill a suffix table key
    # by one comprehension per tail position (and one per cut and mirror), and a key
    # serves many objects: 1.21 frames an object for snakes, 1.26 for rcalt, 1.96
    # for altperm, whose five-entry keys each serve fewer. laguerre reads 1.19.
    # wip3 reads 2.6: its pi walk resumes the walker and the moves of a prefix for
    # each leaf of about 3 objects
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


def test_walked_searches_go_deeper_than_the_recursion_limit():
    # n = 1100 is above CPython's default recursion limit of 1000, so a search that
    # recursed once per position would raise RecursionError here
    path = next(enumerate_lbp(1100))
    assert (path.steps, path.weights) == ("UD" * 550, (0,) * 1100)
    text = format_wip3(next(FAMILIES["wip3"].generate(1100)))
    assert text.startswith("1 10 100 101 ")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d8635a2c6e7b3fffa6c58a79c978a590bfa0a7f8d1aae62edb5a548d039328c6")


def test_text_hands_out_one_piece_per_leaf():
    # the all-U word of lbp at n = 11 alone has 11! weight vectors: its leaves, a piece
    # each, hold the 990 lines of its last three weight ranges (9 * 10 * 11)
    ranges = [tuple(sorted(range(h + 1), key=str)) for h in range(11)]
    pieces = families._text(families._path_lines(iter([("U" * 11, ranges)])))
    assert [piece.count("\n") for piece in itertools.islice(pieces, 3)] == [990] * 3
    # a zigzag piece holds the tails of one walked prefix: one key of the joined table
    for family, m in {"snakes": 2, "rcalt": 2, "altperm": 1}.items():
        fam = FAMILIES[family]
        counts = [piece.count("\n") for piece in itertools.islice(fam.text(fam.ceiling), 200)]
        assert len(counts) == 200 and 0 < min(counts) and max(counts) <= _leaf_bound(m, TAILS[family][1]), family
    # the first sigma at n = 11 has 510 pis: they come as leaves of at most 8 tails, a piece
    # each, so its lines are never collected whole
    first = next(FAMILIES["wip3"].text(11)).partition(" / ")[0] + " / "
    leaves = list(itertools.takewhile(lambda leaf: leaf[0].startswith(first), families._wip3s(11, text=True)))
    pieces = list(itertools.islice(FAMILIES["wip3"].text(11), len(leaves) + 1))
    counts = [piece.count("\n") for piece in pieces]
    assert counts[:-1] == [len(tails) for _, tails, _ in leaves]
    assert sum(counts[:-1]) == 510 and max(counts) <= 8
    assert [line.startswith(first) for line in "".join(pieces).splitlines()] == [True] * 510 + [False] * counts[-1]


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
# its list slot), and the largest piece, one leaf, twice while it is joined.
# Filled by hand with every key, snakes at n = 11 measured 2.5 MiB of table and
# 2.0 MiB of texts under tracemalloc (2640 keys, 26,400 suffixes), rcalt at
# n = 11 2.6 and 1.7 MiB (2640 keys, 18,810 suffixes). altperm at n = 14, with
# five-entry tails, measured 4.4 MiB of table and 3.9 MiB of texts (10,010 keys,
# 32,032 suffixes, 5 at most under one key); with four-entry tails it measured
# 0.8 and 0.9 MiB (4004 keys, 5005 suffixes). The text's table holds the texts in
# place of the tuples, so the bound, which counts both, is loose for the text.
# The call's second table joins, for each walked prefix, the suffix lists of every
# w_n-d+1 after it. Its keys are w_n-d and the slots taken, which leave d free: at
# most |values| C(n, d). Each w_n-d+1 is one of the m values of a free slot, so a
# key's list holds at most the d m lists of its free slots, d m E_d-1 m^(d-1)
# suffixes, as references of REF_BYTES (a list slot and the eighth more that a
# growing list allocates); a key costs at most KEY_BYTES, as in the first table.
# A key's list is the tails of one walked prefix: the largest leaf of the text.
# Full runs met about half of those keys: snakes and rcalt 2310 of 4200 at n = 10,
# with at most 80 and 57 references under one key (128 allowed), altperm 9009 of
# 16,731 at n = 13, with at most 16 (25 allowed); by sys.getsizeof the table
# took 1.4, 1.1 and 2.2 MiB. The table is the same for the text.
#
# Worst case of one _wip3s call's tail table, its tails the last d = 4 entries of
# pi. sigma_1..sigma_n-4 are at most n - 2 by the prefix-maximum bound, so sigma's
# last four entries hold n - 1, n (n in one of the last two places) and an
# ordered pair below n - 1: 6 (n - 2)(n - 3) of them. A pi prefix that holds
# n - 1 or n leaves fewer values >= its floor than the four columns left need,
# and the prune drops it, so the unused values are n - 1, n and two of the
# values below: C(n - 2, 2) masks. The floor is the largest value placed, fixed
# by the other two. That is at most 3 ((n - 2)(n - 3))^2 keys, 15,552 at n = 11;
# full runs meet all of them at n = 4..9. A key's tails depend only on the order
# of its values, and n = 9's keys, which take every order, list 8 tails at most.
# A key costs at most KEY_BYTES (its 3-tuple, sigma's tail, the mask, the list
# header and its share of the dict) and a tail SUFFIX_BYTES, or TEXT_BYTES as a
# text; the text adds the largest piece, a leaf of 8 tails, as above. Under
# tracemalloc, full runs at n = 9 peaked at 1.4 MiB for the objects and 1.6 MiB
# for the text (5292 keys, 11,137 tails); filled by hand with every key at
# n = 11, the table took 5.0 MiB of tuples and 5.1 MiB of texts (29,989 tails).
KEY_BYTES, SUFFIX_BYTES, PAIR_BYTES = 400, 96, 96
ENTRY_BYTES, TEXT_KEY_BYTES, TEXT_BYTES = 8, 200, 128
REF_BYTES = 9
ALTERNATING_ORDERS = {3: 2, 4: 5}  # E_3, E_4


def _table_bound(n, m, entries, depth, text):
    values = m * n
    key = KEY_BYTES + TEXT_KEY_BYTES * text
    suffix = SUFFIX_BYTES + ENTRY_BYTES * (entries - 4) + TEXT_BYTES * text
    suffixes = ALTERNATING_ORDERS[depth - 1] * m ** (depth - 1)
    table = values * math.comb(n, depth - 1) * (key + suffixes * suffix)
    leaf = _leaf_bound(m, depth)
    joined = values * math.comb(n, depth) * (KEY_BYTES + leaf * REF_BYTES)
    return table + joined + 3 * (values + 1) ** 2 * PAIR_BYTES + _pieces_bound(n, leaf, text)


def _wip3_table_bound(n, text):
    keys = 3 * ((n - 2) * (n - 3)) ** 2
    return keys * (KEY_BYTES + 8 * (TEXT_BYTES if text else SUFFIX_BYTES)) + _pieces_bound(n, 8, text)


def _leaf_bound(m, depth):
    # the tails under one key of the joined table: d m lists of E_d-1 m^(d-1) tails
    return depth * m * ALTERNATING_ORDERS[depth - 1] * m ** (depth - 1)


def _pieces_bound(n, lines, text):
    # a piece of one leaf's lines, of at most 2n entries each, twice while it is joined
    return 2 * lines * (4 * 2 * n + 64) * text


def _peak(items, count, text=False):
    # drain items until count of them, or with text count lines of them, have come
    tracemalloc.start()
    try:
        drained = 0
        for item in items:
            drained += item.count("\n") if text else 1
            if drained >= count:
                break
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
    drained, peak = _peak(FAMILIES[family].text(n), lines, text=True)
    assert drained >= lines
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("text", [False, True])
def test_wip3_tail_table_stays_within_its_worst_case(text):
    # the first 200,000 objects or lines at the ceiling
    n, count = FAMILIES["wip3"].ceiling, 200_000
    bound = _wip3_table_bound(n, text)
    drained, peak = _peak(FAMILIES["wip3"].text(n) if text else FAMILIES["wip3"].generate(n), count, text)
    assert drained >= count
    assert peak <= bound, (peak, bound)


def test_wip3_tail_table_meets_every_key_of_its_worst_case():
    # full runs meet the worst case's 3 ((n - 2)(n - 3))^2 keys from n = 4 on, none of
    # them with more than 8 tails; a key without sigma's tail would meet fewer, a prune
    # or sigma bound that lets dead prefixes through more. The table is the search's
    # local `suffixes`, read off its frame
    for n, keys in {1: 1, 2: 2, 3: 4, **{n: 3 * ((n - 2) * (n - 3)) ** 2 for n in range(4, 9)}}.items():
        leaves = families._wip3s(n)
        next(leaves)
        table = leaves.gi_frame.f_locals["suffixes"]
        for _ in leaves:
            pass
        assert len(table) == keys, (n, len(table))
        assert max(map(len, table.values())) <= 8, n



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


def test_unbar_and_place_bars_match_the_comprehension_oracles():
    # unbar on every snake with n <= 7, on every signed permutation with n <= 5 and on
    # seeded words at n = 512 and 4096, as tuples and as lists; place_bars on what unbar
    # gives, on every permutation with n <= 8 (which covers the relative order of every
    # snake with n <= 8) and on the seeded permutations, each with seeded random marks
    # (every permutation with n <= 6 under every set of left peak values marked is in
    # test_bijections.py)
    marked = []
    snakes = _snakes_up_to(7)
    for rng, p, signed in _large_inputs():
        snakes += signed
        marked.append(MarkedPermutation(p, frozenset(rng.sample(p, len(p) // 3))))
    for n in range(6):
        snakes += [tuple(s * v for s, v in zip(signs, perm))
                   for perm in itertools.permutations(range(1, n + 1))
                   for signs in itertools.product((1, -1), repeat=n)]
    rng = random.Random(512)
    perms = [tuple(rng.sample(range(1, 513), 512)) for _ in range(10)]
    words = list(perms)
    for _, p, signed in _large_inputs():  # rng untouched between draws, unlike above
        perms.append(p)
        words += [p, *signed]
    snakes += words + list(map(list, words))
    perms += itertools.chain.from_iterable(itertools.permutations(range(1, n + 1)) for n in range(9))
    rng = random.Random(8)
    for p in perms:
        marks = frozenset(v for v in p if rng.random() < 0.5)
        marked += [MarkedPermutation(p, marks), MarkedPermutation(list(p), marks)]
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

"""Named exhaustive checks behind the `verify` CLI command.

Each property replays one documented invariant over every object of every
size up to a cap (clamped by the requested --n-max). The runner reports one
row per property, in name order, and never stops early: all rows are always
produced.

Most rows are one of three generic checks over a domain (a family name or
"perm", see families.domain) or over a record of bijections.BIJECTIONS. The
rows that check one object at a time hold their predicates as data, in
PER_OBJECT; the tests run the same predicates on random objects. A failing
row names its first counterexample in canonical text, also when a map
raises. The checks raise instead of using assert, so they also check under
`python -O`; and they look up the families and the library functions when
the row runs, never at import time.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import time
from collections import namedtuple
from typing import Callable, Iterator, Sequence

from . import bijections, families, paths, permcore

Side = tuple[str, Callable[..., bool]]  # (domain, predicate on one object of it)
_UD = str.maketrans("UD", "DU")  # history_rc swaps U and D


# bound is the highest n actually covered; elapsed is in seconds
PropertyResult = namedtuple("PropertyResult", "name bound passed elapsed detail", defaults=("",))


class Counterexample(Exception):
    """An invariant fails; the message names the object in canonical text."""


def _objects(domain: str, n: int) -> Iterator:
    return families.domain(domain).generate(n)


def _text(domain: str, obj) -> str:
    return families.domain(domain).render(obj)


def _raised(domain: str, obj, exc: Exception) -> Counterexample:  # exc came from a call on obj
    return Counterexample(f"{domain} {_text(domain, obj)!r}: {type(exc).__name__}: {exc}")


# each check takes the clamped bound and returns a detail string (often empty);
# any exception marks the row as failed

def _holds(cap: int, sides: Sequence[Side]) -> str:
    """Each (domain, predicate) side is true on every object of its domain, side by side."""
    for domain, prop in sides:
        for n in range(cap + 1):
            for obj in _objects(domain, n):
                try:
                    held = prop(obj)
                except Exception as exc:
                    raise _raised(domain, obj, exc) from exc
                if not held:
                    raise Counterexample(f"{domain} {_text(domain, obj)!r}")
    return ""


def _bijective(cap: int, name: str, sides: Sequence[Side]) -> str:
    """The bijection maps each size of its domain one-to-one onto its codomain.

    Each side's predicate also holds on each domain object x, given f(x); with
    inverse(f(x)) == x there, f(inverse(y)) == y on the codomain follows.
    """
    bij = bijections.BIJECTIONS[name]
    domain, codomain = bij.domain, bij.codomain
    for n in range(cap + 1):
        unhit = set(_objects(codomain, n))  # the codomain objects that no image has hit yet
        for obj in _objects(domain, n):
            try:
                image = bij.forward(obj)
            except Exception as exc:
                raise _raised(domain, obj, exc) from exc
            try:
                unhit.remove(image)
            except (KeyError, TypeError) as exc:  # hit before, never in the codomain, or unhashable
                why = "repeats" if image in _objects(codomain, n) else f"is not in {codomain}"
                raise Counterexample(f"{domain} {_text(domain, obj)!r}: image {why}") from exc
            for _, undone in sides:
                try:
                    held = undone(obj, image)
                except Exception as exc:
                    raise _raised(domain, obj, exc) from exc
                if not held:
                    raise Counterexample(f"{domain} {_text(domain, obj)!r}: inverse(f(x)) != x")
        if unhit:
            missed = next(t for t in _objects(codomain, n) if t in unhit)
            raise Counterexample(f"{codomain} {_text(codomain, missed)!r} is no image")
    return ""


def _counts(cap: int, names: Sequence[str]) -> str:
    """Each family has as many objects as its oracle says, and all agree."""
    counts = []
    for n in range(cap + 1):
        got = {name: sum(1 for _ in _objects(name, n)) for name in names}
        want = {name: families.FAMILIES[name].oracle(n) for name in names}
        if got != want or len(set(got.values())) != 1:
            raise Counterexample(f"n={n}: enumerated {got}, oracles {want}")
        counts.append(got[names[0]])
    return "counts=" + ",".join(map(str, counts))


# properties of one object

def _roundtrip(name: str) -> list[Side]:
    """The sides inverse(f(x)) == x on the domain and f(inverse(y)) == y on the codomain of
    the named bijection. A bijective row passes the first the image f(x) that it holds."""
    def undone(x, image=None, back=False) -> bool:
        bij = bijections.BIJECTIONS[name]  # the record that map runs, looked up as the row runs
        there, again = (bij.inverse, bij.forward) if back else (bij.forward, bij.inverse)
        return again(there(x) if image is None else image) == x
    bij = bijections.BIJECTIONS[name]
    return [(bij.domain, undone), (bij.codomain, functools.partial(undone, back=True))]


def _foata_peaks(p) -> bool:
    image = permcore.foata(p)
    return frozenset(image[i - 1] for i in permcore.left_peaks(image)) == permcore.cycle_peaks(p)


def _pattern_rc_duality(p) -> bool:
    n = len(p)
    rc = permcore.reverse_complement(p)
    return all(permcore.count_pat_31_2_at(rc, n + 1 - i) == permcore.count_pat_2_31_at(p, i)
               for i in range(1, n + 1))


def _peaks_alternate(p) -> bool:
    # peak, valley, peak, valley, ..., valley: the pairing of phi's step 3
    peaks, valleys = permcore.left_peaks(p), permcore.right_valleys(p)
    turns = [q for pair in zip(peaks, valleys) for q in pair]
    return len(peaks) == len(valleys) and all(a < b for a, b in zip(turns, turns[1:]))


def _pattern_sum_matches_height(perm: Sequence[int]) -> bool:
    """For every value i, the two straddling-descent counts add up to the
    height of i's step (U, H) or that height minus one (D, T)."""
    caps = paths.weight_caps(bijections.fz(perm))
    return all(permcore.count_pat_31_2_at(perm, i) + permcore.count_pat_2_31_at(perm, i) == cap
               for i, cap in enumerate(caps, start=1))


def _wbar_complements(lbp, caps: Sequence[int]) -> bool:
    """wbar is the complement of each weight within its cap, record type included. Each size's
    paths are closed under that involution, so on all of them this gives wbar(wbar(x)) = x."""
    return paths.wbar(lbp) == type(lbp)(lbp.steps, tuple(map(operator.sub, caps, lbp.weights)))


def _wbar_involution(cap: int) -> str:
    caps: dict[str, list[int]] = {}  # step word -> weight cap of each step, computed once
    def complements(lbp) -> bool:
        if lbp.steps not in caps:
            caps[lbp.steps] = paths.weight_caps(lbp)
        return _wbar_complements(lbp, caps[lbp.steps])
    return _holds(cap, [("lbp", complements)])


def _middle_parity(p) -> bool:
    # Mirrored entries sum to 2n+1, so the middle comparison splits the values
    # into halves with equality possible on the small side only: for odd n,
    # p[n] > n >= p[n+1]; for even n, p[n] <= n < p[n+1].
    n = len(p) // 2
    if n % 2:
        return p[n - 1] > n >= p[n]
    return n == 0 or p[n - 1] <= n < p[n]


def _rcalt_image_shape(p) -> bool:
    hw = bijections.fz(p)
    return "H" not in hw.steps and "T" not in hw.steps and paths.history_rc(hw) == hw


def _snake_sign_pattern(snake) -> bool:
    # the one statement of the rule: v > 0 exactly in odd positions, but at right valleys of
    # |snake|, which take either sign; an entry is read once the next shows if it is a valley
    prev, low, fell, odd = 0, 0, False, False  # p[i], |p[i]|, |p[i-1]| > |p[i]|, i odd
    for v in snake:
        a = abs(v)
        if (prev > 0) != odd and not (fell and low < a):
            return False
        prev, low, fell, odd = v, a, low > a, not odd
    return fell or (prev > 0) == odd  # p[n+1] = +inf: p[n] is a valley when it fell


# rows over all families

def _lbp_dp_vs_egf(cap: int) -> str:
    egf, dp = families.springer_egf(cap), paths.lbp_dp_counts(cap)
    if egf != dp:
        n = next(n for n, (a, b) in enumerate(zip(egf, dp)) if a != b)
        raise Counterexample(f"n={n}: egf {egf[n]}, dp {dp[n]}")
    return f"S_{cap}={egf[cap]}"


def _canonical_order(cap: int) -> str:
    """Each size's texts strictly increase, and text() writes them, one per line."""
    for name in families.FAMILIES:
        for n in range(cap + 1):
            texts = [_text(name, obj) for obj in _objects(name, n)]
            for previous, text in zip(texts, texts[1:]):
                if previous >= text:
                    raise Counterexample(f"{name} n={n}: {previous!r} !< {text!r}")
            got, want = "".join(families.FAMILIES[name].text(n)), "".join(t + "\n" for t in texts)
            if got != want:
                first = texts[min(os.path.commonprefix([got, want]).count("\n"), len(texts) - 1)]
                raise Counterexample(f"{name} n={n}: text() differs from render at {first!r}")
    return ""


def _mutations(obj) -> Iterator:
    """One-step mutations of an object, by its type: a step word gets one letter
    replaced by each other step letter; an int tuple gets two entries swapped, or
    one entry negated or raised by one; a record (a tuple too) gets one field mutated."""
    if isinstance(obj, str):
        for i, s in enumerate(obj):
            yield from (obj[:i] + t + obj[i + 1:] for t in paths.STEP_RULES if t != s)
    elif isinstance(obj, permcore.Record):
        for field, value in zip(obj._fields, obj):
            yield from (obj._replace(**{field: mutated}) for mutated in _mutations(value))
    else:
        for i, j in itertools.combinations(range(len(obj)), 2):
            mutated = list(obj)
            mutated[i], mutated[j] = mutated[j], mutated[i]
            yield tuple(mutated)
        for i, v in enumerate(obj):
            yield from (obj[:i] + (w,) + obj[i + 1:] for w in (-v, v + 1))


def _validates(name: str, obj) -> bool:
    try:
        families.FAMILIES[name].validate(obj)
    except ValueError:
        return False
    return True


def _validator_fuzz(cap: int) -> str:
    """Each family's validator accepts exactly its enumerated objects among them
    and their one-step mutations."""
    for name in families.FAMILIES:
        for n in range(cap + 1):
            objects = list(_objects(name, n))
            members = {_text(name, obj) for obj in objects}
            for obj in objects:
                if not _validates(name, obj):
                    raise Counterexample(f"{name} emitted invalid {_text(name, obj)!r}")
                for mutated in _mutations(obj):
                    if _validates(name, mutated) != (_text(name, mutated) in members):
                        raise Counterexample(
                            f"{name}: validator disagrees with membership on {_text(name, mutated)!r}")
    return ""


# (name, cap, check, sides) of each row that checks one object at a time, by
# check(cap, sides=sides), each side a (domain, predicate) pair: the one statement of each
# invariant (of an involution, the formula of its map), which the tests run on random objects.
PER_OBJECT: list[tuple[str, int, Callable[..., str], list[Side]]] = [
    ("bijections/bars-always-consistent", 8, _holds, [
        ("snakes", lambda snake: bijections.place_bars(bijections.unbar(snake)) == snake)]),
    ("bijections/bigpsi-roundtrip", 6, _holds, _roundtrip("bigpsi")),
    ("bijections/fz-commutes-with-rc", 7, _holds, [("perm", lambda p: bijections.fz(
        permcore.reverse_complement(p)) == paths.history_rc(bijections.fz(p)))]),
    ("bijections/fz-bijective", 7, functools.partial(_bijective, name="fz"), _roundtrip("fz")[:1]),
    ("bijections/fz-roundtrip", 7, _holds, _roundtrip("fz")[1:]),
    ("bijections/pattern-sum-matches-height", 7, _holds, [("perm", _pattern_sum_matches_height)]),
    ("bijections/phi-bijective", 6, functools.partial(_bijective, name="phi"), _roundtrip("phi")[:1]),
    ("bijections/phi-roundtrip", 6, _holds, _roundtrip("phi")[1:]),
    ("bijections/psi-bijective", 6, functools.partial(_bijective, name="psi"), _roundtrip("psi")[:1]),
    ("bijections/psi-roundtrip", 6, _holds, _roundtrip("psi")[1:]),
    ("bijections/rcalt-history-is-rc-fixed-dyck", 6, _holds, [("rcalt", _rcalt_image_shape)]),
    ("bijections/rcalt-middle-parity", 6, _holds, [("rcalt", _middle_parity)]),
    ("bijections/snake-sign-pattern", 8, _holds, [("snakes", _snake_sign_pattern)]),
    ("bijections/snake2lbp-bijective", 6, functools.partial(_bijective, name="snake2lbp"),
     _roundtrip("snake2lbp")[:1]),
    # extend_to_rc_fixed's image is rc-fixed as built; halve_rc_fixed checks it, by its own mirror
    ("paths/extend-to-rc-fixed-closure", 7, _holds, [
        ("lbp", lambda lbp: paths.halve_rc_fixed(paths.extend_to_rc_fixed(lbp)) == lbp)]),
    ("paths/history-rc-involution", 7, _holds, [("laguerre", lambda hw: paths.history_rc(hw) == type(hw)(
        hw.steps[::-1].translate(_UD), tuple(map(operator.sub, paths.weight_caps(hw), hw.weights))[::-1]))]),
    ("permcore/foata-maps-cycle-peaks-to-left-peaks", 8, _holds, [("perm", _foata_peaks)]),
    ("permcore/foata-roundtrip", 8, _holds, [("perm", lambda p: permcore.foata_inverse(
        permcore.foata(p)) == p and permcore.foata(permcore.foata_inverse(p)) == p)]),
    ("permcore/invert-involution", 8, _holds, [("perm", lambda p: len(q := permcore.invert(p)) == len(p)
                                                 and [q[v - 1] for v in p] == [*range(1, len(p) + 1)])]),
    ("permcore/left-peak-has-right-valley", 8, _holds, [("perm", _peaks_alternate)]),
    ("permcore/pattern-count-rc-duality", 8, _holds, [("perm", _pattern_rc_duality)]),
    ("permcore/rc-involution", 8, _holds, [
        ("perm", lambda p: permcore.reverse_complement(p) == tuple([len(p) + 1 - v for v in reversed(p)]))]),
]

# (name, cap, check) of every row, in name order; caps come from the documented
# ranges of each invariant, and each check looks up the library when it runs
PROPERTIES: list[tuple[str, int, Callable[[int], str]]] = sorted([
    *((name, cap, functools.partial(check, sides=sides)) for name, cap, check, sides in PER_OBJECT),
    ("families/alternating-count-matches-euler", 8, lambda cap: _counts(cap, ["altperm"])),
    ("families/canonical-order", 6, _canonical_order),
    ("families/four-way-count-equality", 6, lambda cap: _counts(cap, ["snakes", "wip3", "rcalt", "lbp"])),
    ("families/validator-fuzz", 4, _validator_fuzz),
    ("paths/laguerre-count-is-factorial", 7, lambda cap: _counts(cap, ["laguerre"])),
    ("paths/lbp-count-dp-matches-egf", 12, _lbp_dp_vs_egf),
    ("paths/lbp-count-dp-matches-enumeration", 9, lambda cap: _counts(cap, ["lbp"])),
    ("paths/wbar-involution", 8, _wbar_involution),
])


def run(n_max: int) -> list[PropertyResult]:
    """Run every property with its cap clamped to n_max; rows in name order."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    results = []
    for name, cap, check in sorted(PROPERTIES):
        bound = min(cap, n_max)
        start = time.perf_counter()
        try:
            detail = check(bound)
            passed = True
        except Exception as exc:  # a failed row must not stop the others
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(PropertyResult(name, bound, passed, time.perf_counter() - start, detail))
    return results

"""Named exhaustive checks behind the `verify` CLI command.

Each property replays one documented invariant over every object of every
size up to a cap (clamped by the requested --n-max). The runner reports one
row per property, in name order, and never stops early: all rows are always
produced.

Most rows are one of four generic checks over a domain (a family name or
"perm", see families.domain) or over a record of bijections.BIJECTIONS. A
failing row names its first counterexample in canonical text, also when a
map raises. The checks raise instead of using assert, so they also check
under `python -O`; and they look up the families and the library functions
when the row runs, never at import time.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import time
from typing import Callable, Iterator, Sequence

from . import bijections, families, paths, permcore


@dataclasses.dataclass
class PropertyResult:
    name: str
    bound: int          # highest n actually covered
    passed: bool
    elapsed: float
    detail: str = ""


class Counterexample(Exception):
    """An invariant fails; the message names the object in canonical text."""


def _objects(domain: str, n: int) -> Iterator:
    return families.domain(domain).generate(n)


def _text(domain: str, obj) -> str:
    return families.domain(domain).render(obj)


def _named(domain: str, obj, fn: Callable):
    """fn(obj); an exception from it becomes a Counterexample naming obj."""
    try:
        return fn(obj)
    except Exception as exc:
        raise Counterexample(
            f"{domain} {_text(domain, obj)!r}: {type(exc).__name__}: {exc}") from exc


# each check takes the clamped bound and returns a detail string (often empty);
# any exception marks the row as failed

def _holds(cap: int, domain: str, prop: Callable[..., bool]) -> str:
    """prop is true on every object of the domain."""
    for n in range(cap + 1):
        for obj in _objects(domain, n):
            if not _named(domain, obj, prop):
                raise Counterexample(f"{domain} {_text(domain, obj)!r}")
    return ""


def _bijective(cap: int, name: str, inverse: bool = False) -> str:
    """The bijection maps each size of its domain one-to-one onto its codomain.

    With inverse, also inverse(f(x)) == x on the domain; as f is a bijection,
    f(inverse(y)) == y on the codomain follows.
    """
    bij = bijections.BIJECTIONS[name]
    domain, codomain = bij.domain, bij.codomain
    for n in range(cap + 1):
        targets = set(_objects(codomain, n))
        images = set()
        for obj in _objects(domain, n):
            image = _named(domain, obj, bij.forward)
            if image in images or image not in targets:
                why = "repeats" if image in images else f"is not in {codomain}"
                raise Counterexample(f"{domain} {_text(domain, obj)!r}: image {why}")
            if inverse and _named(domain, obj, lambda _: bij.inverse(image)) != obj:
                raise Counterexample(f"{domain} {_text(domain, obj)!r}: inverse(f(x)) != x")
            images.add(image)
        if len(images) < len(targets):
            missed = next(t for t in _objects(codomain, n) if t not in images)
            raise Counterexample(f"{codomain} {_text(codomain, missed)!r} is no image")
    return ""


def _roundtrip(cap: int, name: str) -> str:
    """The inverse undoes the map on the domain, and the map the inverse on the codomain."""
    bij = bijections.BIJECTIONS[name]
    _holds(cap, bij.domain, lambda x: bij.inverse(bij.forward(x)) == x)
    return _holds(cap, bij.codomain, lambda y: bij.forward(bij.inverse(y)) == y)


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

def _foata_roundtrip(p) -> bool:
    return (permcore.foata_inverse(permcore.foata(p)) == p
            and permcore.foata(permcore.foata_inverse(p)) == p)


def _foata_peaks(p) -> bool:
    image = permcore.foata(p)
    return frozenset(image[i - 1] for i in permcore.left_peaks(image)) == permcore.cycle_peaks(p)


def _pattern_rc_duality(p) -> bool:
    n = len(p)
    rc = permcore.reverse_complement(p)
    return all(permcore.count_pat_31_2_at(rc, n + 1 - i) == permcore.count_pat_2_31_at(p, i)
               for i in range(1, n + 1))


def _peak_has_valley(p) -> bool:
    valleys = permcore.right_valleys(p)
    bounds = [*permcore.left_peaks(p), len(p) + 1]
    return all(any(peak < q < bound for q in valleys) for peak, bound in zip(bounds, bounds[1:]))


def pattern_sum_matches_height(perm: Sequence[int]) -> bool:
    """For every value i, the two straddling-descent counts add up to the
    height of i's step (U, H) or that height minus one (D, T)."""
    word = tuple(perm)
    hw = bijections.fz(word)
    heights = paths.height_profile(hw.steps)
    return all(
        permcore.count_pat_31_2_at(word, i) + permcore.count_pat_2_31_at(word, i)
        == paths._weight_cap(s, h)
        for i, (s, h) in enumerate(zip(hw.steps, heights), start=1)
    )


def _wbar_involution(cap: int) -> str:
    # an involution that complements each weight within its range
    caps: dict[str, list[int]] = {}  # step word -> weight cap of each step

    def complements(lbp) -> bool:
        if lbp.steps not in caps:
            heights = paths.height_profile(lbp.steps)
            caps[lbp.steps] = [paths._weight_cap(s, h) for s, h in zip(lbp.steps, heights)]
        image = paths.wbar(lbp)
        return (paths.wbar(image) == lbp and image.steps == lbp.steps
                and list(map(operator.add, lbp.weights, image.weights)) == caps[lbp.steps])

    return _holds(cap, "lbp", complements)


def _extend_closure(lbp) -> bool:
    hw = paths.extend_to_rc_fixed(lbp)
    return paths.history_rc(hw) == hw and paths.halve_rc_fixed(hw) == lbp


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


def _bars_consistent(snake) -> bool:
    bijections.phi_inverse_trace(snake)  # raises InconsistentBars on failure
    return True


def _snake_sign_pattern(snake) -> bool:
    valleys = set(permcore.right_valleys(tuple(abs(v) for v in snake)))
    return all((v > 0) == (pos % 2 == 1)
               for pos, v in enumerate(snake, start=1) if pos not in valleys)


# rows over all families

def _lbp_dp_vs_egf(cap: int) -> str:
    egf = families.springer_egf(cap).values
    dp = families.springer_dp(cap).values
    if egf != dp:
        n = next(n for n, (a, b) in enumerate(zip(egf, dp)) if a != b)
        raise Counterexample(f"n={n}: egf {egf[n]}, dp {dp[n]}")
    return f"S_{cap}={egf[cap]}"


def _canonical_order(cap: int) -> str:
    for name, fam in families.FAMILIES.items():
        for n in range(cap + 1):
            previous = None
            for obj in fam.enumerate(n):
                text = fam.render(obj)
                if previous is not None and previous >= text:
                    raise Counterexample(f"{name} n={n}: {previous!r} !< {text!r}")
                previous = text
    return ""


def _swaps(word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """word with two entries exchanged, each pair once."""
    for i, j in itertools.combinations(range(len(word)), 2):
        mutated = list(word)
        mutated[i], mutated[j] = mutated[j], mutated[i]
        yield tuple(mutated)


def _mutations(name: str, obj):
    """One-step mutations of an enumerated object, per its family's shape."""
    if name in ("snakes", "rcalt", "altperm"):
        yield from _swaps(obj)
        if name == "snakes":
            for i in range(len(obj)):
                yield obj[:i] + (-obj[i],) + obj[i + 1:]
    elif name == "wip3":
        for sigma in _swaps(obj.sigma):
            yield families.ThreeWIP(sigma, obj.pi)
        for pi in _swaps(obj.pi):
            yield families.ThreeWIP(obj.sigma, pi)
    else:  # lbp, laguerre: bump one weight
        for i, w in enumerate(obj.weights):
            yield type(obj)(obj.steps, obj.weights[:i] + (w + 1,) + obj.weights[i + 1:])


def _validates(name: str, obj) -> bool:
    try:
        families.FAMILIES[name].validate(obj)
    except ValueError:
        return False
    return True


def _validator_fuzz(cap: int) -> str:
    for name, fam in families.FAMILIES.items():
        for n in range(cap + 1):
            members = set()
            objects = []
            for obj in fam.generate(n):
                if not _validates(name, obj):
                    raise Counterexample(f"{name} emitted invalid {fam.render(obj)!r}")
                members.add(fam.render(obj))
                objects.append(obj)
            for obj in objects:
                for mutated in _mutations(name, obj):
                    if _validates(name, mutated) != (fam.render(mutated) in members):
                        raise Counterexample(
                            f"{name}: validator disagrees with membership on {fam.render(mutated)!r}")
    return ""


# (name, cap, check); caps come from the documented ranges of each invariant.
# The lambdas name library functions in their bodies, so a function is looked
# up when its row runs.
PROPERTIES: list[tuple[str, int, Callable[[int], str]]] = [
    ("bijections/bars-always-consistent", 8, lambda cap: _holds(cap, "snakes", _bars_consistent)),
    ("bijections/bigpsi-roundtrip", 6, lambda cap: _roundtrip(cap, "bigpsi")),
    ("bijections/fz-bijective", 7, lambda cap: _bijective(cap, "fz")),
    ("bijections/fz-commutes-with-rc", 7, lambda cap: _holds(
        cap, "perm",
        lambda p: bijections.fz(permcore.reverse_complement(p)) == paths.history_rc(bijections.fz(p)))),
    ("bijections/fz-roundtrip", 7, lambda cap: _roundtrip(cap, "fz")),
    ("bijections/pattern-sum-matches-height", 7,
     lambda cap: _holds(cap, "perm", pattern_sum_matches_height)),
    ("bijections/phi-bijective", 6, lambda cap: _bijective(cap, "phi")),
    ("bijections/phi-roundtrip", 6, lambda cap: _roundtrip(cap, "phi")),
    ("bijections/psi-bijective", 6, lambda cap: _bijective(cap, "psi")),
    ("bijections/psi-roundtrip", 6, lambda cap: _roundtrip(cap, "psi")),
    ("bijections/rcalt-history-is-rc-fixed-dyck", 6,
     lambda cap: _holds(cap, "rcalt", _rcalt_image_shape)),
    ("bijections/rcalt-middle-parity", 6, lambda cap: _holds(cap, "rcalt", _middle_parity)),
    ("bijections/snake-sign-pattern", 8, lambda cap: _holds(cap, "snakes", _snake_sign_pattern)),
    ("bijections/snake2lbp-bijective", 6, lambda cap: _bijective(cap, "snake2lbp", inverse=True)),
    ("families/alternating-count-matches-euler", 8, lambda cap: _counts(cap, ["altperm"])),
    ("families/canonical-order", 6, _canonical_order),
    ("families/four-way-count-equality", 6,
     lambda cap: _counts(cap, ["snakes", "wip3", "rcalt", "lbp"])),
    ("families/validator-fuzz", 4, _validator_fuzz),
    ("paths/extend-to-rc-fixed-closure", 7, lambda cap: _holds(cap, "lbp", _extend_closure)),
    ("paths/history-rc-involution", 7, lambda cap: _holds(
        cap, "laguerre", lambda hw: paths.history_rc(paths.history_rc(hw)) == hw)),
    ("paths/laguerre-count-is-factorial", 7, lambda cap: _counts(cap, ["laguerre"])),
    ("paths/lbp-count-dp-matches-egf", 12, _lbp_dp_vs_egf),
    ("paths/lbp-count-dp-matches-enumeration", 9, lambda cap: _counts(cap, ["lbp"])),
    ("paths/wbar-involution", 8, _wbar_involution),
    ("permcore/foata-maps-cycle-peaks-to-left-peaks", 8, lambda cap: _holds(cap, "perm", _foata_peaks)),
    ("permcore/foata-roundtrip", 8, lambda cap: _holds(cap, "perm", _foata_roundtrip)),
    ("permcore/invert-involution", 8, lambda cap: _holds(
        cap, "perm", lambda p: permcore.invert(permcore.invert(p)) == p)),
    ("permcore/left-peak-has-right-valley", 8, lambda cap: _holds(cap, "perm", _peak_has_valley)),
    ("permcore/pattern-count-rc-duality", 8, lambda cap: _holds(cap, "perm", _pattern_rc_duality)),
    ("permcore/rc-involution", 8, lambda cap: _holds(
        cap, "perm", lambda p: permcore.reverse_complement(permcore.reverse_complement(p)) == p)),
]


def run(n_max: int) -> list[PropertyResult]:
    """Run every property with its cap clamped to n_max; rows in name order."""
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

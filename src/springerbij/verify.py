"""Named exhaustive checks behind the `verify` CLI command.

Each property replays one documented invariant over every object of every
size up to a cap (clamped by the requested --n-max). The runner reports one
row per property, in name order, and never stops early: all rows are always
produced.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from typing import Callable, Iterator, Sequence

from . import bijections, families, paths, permcore
from .errors import ValidationError


@dataclasses.dataclass
class PropertyResult:
    name: str
    bound: int          # highest n actually covered
    passed: bool
    elapsed: float
    detail: str = ""


def _perms(n_max: int) -> Iterator[tuple[int, ...]]:
    for n in range(n_max + 1):
        yield from itertools.permutations(range(1, n + 1))


# each check takes the clamped bound and returns a detail string (often empty);
# any exception marks the row as failed

def _invert_involution(cap: int) -> str:
    for p in _perms(cap):
        assert permcore.invert(permcore.invert(p)) == p
    return ""


def _rc_involution(cap: int) -> str:
    for p in _perms(cap):
        assert permcore.reverse_complement(permcore.reverse_complement(p)) == p
    return ""


def _foata_roundtrip(cap: int) -> str:
    for p in _perms(cap):
        assert permcore.foata_inverse(permcore.foata(p)) == p
        assert permcore.foata(permcore.foata_inverse(p)) == p
    return ""


def _foata_peaks(cap: int) -> str:
    for p in _perms(cap):
        image = permcore.foata(p)
        at_peaks = frozenset(image[i - 1] for i in permcore.left_peaks(image))
        assert at_peaks == permcore.cycle_peaks(p)
    return ""


def _pattern_rc_duality(cap: int) -> str:
    for p in _perms(cap):
        n = len(p)
        rc = permcore.reverse_complement(p)
        for i in range(1, n + 1):
            assert permcore.count_pat_31_2_at(rc, n + 1 - i) == permcore.count_pat_2_31_at(p, i)
    return ""


def _peak_has_valley(cap: int) -> str:
    for p in _perms(cap):
        peaks = permcore.left_peaks(p)
        valleys = permcore.right_valleys(p)
        bounds = list(peaks) + [len(p) + 1]
        for which, peak in enumerate(peaks):
            assert any(peak < q < bounds[which + 1] for q in valleys)
    return ""


def _history_rc_involution(cap: int) -> str:
    for n in range(cap + 1):
        for hw in families.enumerate_laguerre(n):
            assert paths.history_rc(paths.history_rc(hw)) == hw
    return ""


def _wbar_involution(cap: int) -> str:
    for n in range(cap + 1):
        for lbp in families.enumerate_lbp(n):
            assert paths.wbar(paths.wbar(lbp)) == lbp
    return ""


def _laguerre_factorial(cap: int) -> str:
    counts = []
    for n in range(cap + 1):
        count = sum(1 for _ in families.enumerate_laguerre(n))
        assert count == math.factorial(n)
        counts.append(count)
    return "counts=" + ",".join(map(str, counts))


def _lbp_dp_vs_enumeration(cap: int) -> str:
    for n in range(cap + 1):
        assert sum(1 for _ in families.enumerate_lbp(n)) == paths.count_lbp_dp(n)
    return ""


def _lbp_dp_vs_egf(cap: int) -> str:
    egf = families.springer_egf(cap).values
    dp = families.springer_dp(cap).values
    assert egf == dp
    return f"S_{cap}={egf[cap]}"


def _extend_closure(cap: int) -> str:
    for n in range(cap + 1):
        for lbp in families.enumerate_lbp(n):
            hw = paths.extend_to_rc_fixed(lbp)
            assert paths.history_rc(hw) == hw
            assert paths.halve_rc_fixed(hw) == lbp
    return ""


def _phi_bijective(cap: int) -> str:
    for n in range(cap + 1):
        images = [bijections.phi(w) for w in families.enumerate_wip3(n)]
        assert len(set(images)) == len(images)
        assert set(images) == set(families.enumerate_snakes(n))
    return ""


def _phi_roundtrip(cap: int) -> str:
    for n in range(cap + 1):
        for w in families.enumerate_wip3(n):
            assert bijections.phi_inverse(bijections.phi(w)) == w
        for s in families.enumerate_snakes(n):
            assert bijections.phi(bijections.phi_inverse(s)) == s
    return ""


def _psi_bijective(cap: int) -> str:
    for n in range(cap + 1):
        images = [bijections.psi(s) for s in families.enumerate_snakes(n)]
        assert len(set(images)) == len(images)
        assert set(images) == set(families.enumerate_rcalt(n))
    return ""


def _psi_roundtrip(cap: int) -> str:
    for n in range(cap + 1):
        for s in families.enumerate_snakes(n):
            assert bijections.psi_inverse(bijections.psi(s)) == s
        for p in families.enumerate_rcalt(n):
            assert bijections.psi(bijections.psi_inverse(p)) == p
    return ""


def _fz_bijective(cap: int) -> str:
    for n in range(cap + 1):
        images = [bijections.fz(p) for p in itertools.permutations(range(1, n + 1))]
        assert len(set(images)) == len(images) == math.factorial(n)
        assert set(images) == set(families.enumerate_laguerre(n))
    return ""


def _fz_roundtrip(cap: int) -> str:
    for n in range(cap + 1):
        for p in itertools.permutations(range(1, n + 1)):
            assert bijections.fz_inverse(bijections.fz(p)) == p
        for hw in families.enumerate_laguerre(n):
            assert bijections.fz(bijections.fz_inverse(hw)) == hw
    return ""


def _bigpsi_roundtrip(cap: int) -> str:
    for n in range(cap + 1):
        for p in families.enumerate_rcalt(n):
            assert bijections.lbp_to_rcalt(bijections.rcalt_to_lbp(p)) == p
        for lbp in families.enumerate_lbp(n):
            assert bijections.rcalt_to_lbp(bijections.lbp_to_rcalt(lbp)) == lbp
    return ""


def _snake2lbp_bijective(cap: int) -> str:
    for n in range(cap + 1):
        images = [bijections.snake_to_lbp(s) for s in families.enumerate_snakes(n)]
        assert len(set(images)) == len(images)
        assert set(images) == set(families.enumerate_lbp(n))
    return ""


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


def _pattern_sum_identity(cap: int) -> str:
    for p in _perms(cap):
        assert pattern_sum_matches_height(p)
    return ""


def _fz_rc_commutation(cap: int) -> str:
    for p in _perms(cap):
        assert bijections.fz(permcore.reverse_complement(p)) == paths.history_rc(bijections.fz(p))
    return ""


def _middle_parity(cap: int) -> str:
    # Mirrored entries sum to 2n+1, so the middle comparison splits the values
    # into halves with equality possible on the small side only: for odd n,
    # p[n] > n >= p[n+1]; for even n, p[n] <= n < p[n+1].
    for n in range(1, cap + 1):
        for p in families.enumerate_rcalt(n):
            if n % 2:
                assert p[n - 1] > n >= p[n]
            else:
                assert p[n - 1] <= n < p[n]
    return ""


def _rcalt_image_shape(cap: int) -> str:
    for n in range(cap + 1):
        for p in families.enumerate_rcalt(n):
            hw = bijections.fz(p)
            assert "H" not in hw.steps and "T" not in hw.steps
            assert paths.history_rc(hw) == hw
    return ""


def _bars_always_consistent(cap: int) -> str:
    for n in range(cap + 1):
        for s in families.enumerate_snakes(n):
            bijections.phi_inverse_trace(s)  # raises InconsistentBars on failure
    return ""


def _snake_sign_pattern(cap: int) -> str:
    for n in range(cap + 1):
        for s in families.enumerate_snakes(n):
            word = tuple(abs(v) for v in s)
            valleys = set(permcore.right_valleys(word))
            for pos, v in enumerate(s, start=1):
                if pos in valleys:
                    continue
                assert (v > 0) == (pos % 2 == 1)
    return ""


def _four_way_counts(cap: int) -> str:
    expected = families.springer_egf(cap).values
    counts = []
    for n in range(cap + 1):
        got = {
            "snakes": sum(1 for _ in families.enumerate_snakes(n)),
            "wip3": sum(1 for _ in families.enumerate_wip3(n)),
            "rcalt": sum(1 for _ in families.enumerate_rcalt(n)),
            "lbp": sum(1 for _ in families.enumerate_lbp(n)),
        }
        assert set(got.values()) == {expected[n]}, f"n={n}: {got} != {expected[n]}"
        counts.append(expected[n])
    return "counts=" + ",".join(map(str, counts))


def _alternating_vs_euler(cap: int) -> str:
    euler = families.euler_sequence(cap)
    for n in range(cap + 1):
        assert sum(1 for _ in families.enumerate_alternating(n)) == euler[n]
    return "counts=" + ",".join(map(str, euler))


def _canonical_order(cap: int) -> str:
    for name, fam in families.FAMILIES.items():
        for n in range(cap + 1):
            previous = None
            for obj in fam.enumerate(n):
                text = fam.render(obj)
                assert previous is None or previous < text, f"{name} n={n}: {previous!r} !< {text!r}"
                previous = text
    return ""


def _mutations(name: str, obj):
    """One-step mutations of an enumerated object, per its family's shape."""
    if name in ("snakes", "rcalt", "altperm"):
        word = list(obj)
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                mutated = word[:]
                mutated[i], mutated[j] = mutated[j], mutated[i]
                yield tuple(mutated)
        if name == "snakes":
            for i in range(len(word)):
                mutated = word[:]
                mutated[i] = -mutated[i]
                yield tuple(mutated)
    elif name == "wip3":
        for row in ("sigma", "pi"):
            word = list(getattr(obj, row))
            for i in range(len(word)):
                for j in range(i + 1, len(word)):
                    mutated = word[:]
                    mutated[i], mutated[j] = mutated[j], mutated[i]
                    if row == "sigma":
                        yield families.ThreeWIP(tuple(mutated), obj.pi)
                    else:
                        yield families.ThreeWIP(obj.sigma, tuple(mutated))
    else:  # lbp, laguerre: bump one weight
        for i in range(len(obj.weights)):
            bumped = list(obj.weights)
            bumped[i] += 1
            yield type(obj)(obj.steps, tuple(bumped))


def _validates(name: str, obj) -> bool:
    try:
        if name == "snakes":
            return permcore.is_signed_permutation(obj) and permcore.is_snake(obj)
        if name == "rcalt":
            return (
                permcore.is_permutation(obj)
                and len(obj) % 2 == 0
                and permcore.is_alternating(obj)
                and permcore.reverse_complement(obj) == tuple(obj)
            )
        if name == "altperm":
            return permcore.is_permutation(obj) and permcore.is_alternating(obj)
        if name == "wip3":
            return families.is_wip3(obj.sigma, obj.pi)
        if name == "lbp":
            paths.validate_labeled_ballot(obj.steps, obj.weights)
            return True
        paths.validate_laguerre(obj.steps, obj.weights)
        return True
    except ValidationError:
        return False


def _validator_fuzz(cap: int) -> str:
    for name, fam in families.FAMILIES.items():
        for n in range(cap + 1):
            members = set()
            objects = []
            for obj in fam.generate(n):
                assert _validates(name, obj), f"{name} emitted invalid {obj}"
                members.add(fam.render(obj))
                objects.append(obj)
            for obj in objects:
                for mutated in _mutations(name, obj):
                    expected = fam.render(mutated) in members
                    assert _validates(name, mutated) == expected, (
                        f"{name}: validator disagrees with membership on {mutated}"
                    )
    return ""


# (name, cap, check); caps come from the documented ranges of each invariant
PROPERTIES: list[tuple[str, int, Callable[[int], str]]] = [
    ("bijections/bars-always-consistent", 8, _bars_always_consistent),
    ("bijections/bigpsi-roundtrip", 6, _bigpsi_roundtrip),
    ("bijections/fz-bijective", 7, _fz_bijective),
    ("bijections/fz-commutes-with-rc", 7, _fz_rc_commutation),
    ("bijections/fz-roundtrip", 7, _fz_roundtrip),
    ("bijections/pattern-sum-matches-height", 7, _pattern_sum_identity),
    ("bijections/phi-bijective", 6, _phi_bijective),
    ("bijections/phi-roundtrip", 6, _phi_roundtrip),
    ("bijections/psi-bijective", 6, _psi_bijective),
    ("bijections/psi-roundtrip", 6, _psi_roundtrip),
    ("bijections/rcalt-history-is-rc-fixed-dyck", 6, _rcalt_image_shape),
    ("bijections/rcalt-middle-parity", 6, _middle_parity),
    ("bijections/snake-sign-pattern", 8, _snake_sign_pattern),
    ("bijections/snake2lbp-bijective", 6, _snake2lbp_bijective),
    ("families/alternating-count-matches-euler", 8, _alternating_vs_euler),
    ("families/canonical-order", 6, _canonical_order),
    ("families/four-way-count-equality", 6, _four_way_counts),
    ("families/validator-fuzz", 4, _validator_fuzz),
    ("paths/extend-to-rc-fixed-closure", 7, _extend_closure),
    ("paths/history-rc-involution", 7, _history_rc_involution),
    ("paths/laguerre-count-is-factorial", 7, _laguerre_factorial),
    ("paths/lbp-count-dp-matches-egf", 12, _lbp_dp_vs_egf),
    ("paths/lbp-count-dp-matches-enumeration", 9, _lbp_dp_vs_enumeration),
    ("paths/wbar-involution", 8, _wbar_involution),
    ("permcore/foata-maps-cycle-peaks-to-left-peaks", 8, _foata_peaks),
    ("permcore/foata-roundtrip", 8, _foata_roundtrip),
    ("permcore/invert-involution", 8, _invert_involution),
    ("permcore/left-peak-has-right-valley", 8, _peak_has_valley),
    ("permcore/pattern-count-rc-duality", 8, _pattern_rc_duality),
    ("permcore/rc-involution", 8, _rc_involution),
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

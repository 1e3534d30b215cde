"""Property-based tests: verify's own per-object predicates on random objects.

Each invariant is stated once, as a predicate of a row in verify.PER_OBJECT;
verify runs it on every object up to the row's cap. The tests here run every
predicate of a domain on hypothesis objects with n <= 12, and on seeded,
exactly uniform samples at n = 64 and 512, where an indexing slip that
exhaustion cannot reach would show. A new per-object row is sampled with no
new test; the guard below asks for a strategy and a sampler of each domain.
"""

import collections
import doctest
import functools
import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import springerbij
from springerbij import bijections, cli, errors, families, paths, permcore, verify
from springerbij.paths import validate_labeled_ballot, validate_laguerre

# domain -> [(row name, predicate)], in table order
PREDICATES = collections.defaultdict(list)
for _row, _, _, _sides in verify.PER_OBJECT:
    for _domain, _predicate in _sides:
        PREDICATES[_domain].append((_row, _predicate))

_SAMPLING = Path(__file__).resolve().parents[1] / "perfbench" / "sampling.py"
_spec = importlib.util.spec_from_file_location("sampling", _SAMPLING)
sampling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sampling)


def _holds_on(domain, obj, only=None):
    for row, predicate in PREDICATES[domain]:
        if only in (None, row):
            assert predicate(obj), f"{row} fails on {domain} {verify._text(domain, obj)!r}"


@st.composite
def permutations(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


@st.composite
def snakes(draw, max_n=12):
    # total construction: any absolute word plus free sign bits at its right
    # valleys is a snake (non-valley signs are forced by position parity)
    n = draw(st.integers(min_value=0, max_value=max_n))
    word = tuple(draw(st.permutations(range(1, n + 1))))
    valleys = set(permcore.right_valleys(word))
    flip = {q: draw(st.booleans()) for q in sorted(valleys)}
    out = tuple(
        (-v if flip[pos] else v) if pos in valleys else (v if pos % 2 else -v)
        for pos, v in enumerate(word, start=1)
    )
    assert permcore.is_snake(out)
    return out


@st.composite
def laguerre_histories(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    steps = []
    weights = []
    h = 0
    for i in range(n):
        remaining = n - i
        letters = [s for s in "UDHT"
                   if 0 <= h + {"U": 1, "D": -1}.get(s, 0) <= remaining - 1
                   and (h if s in "UH" else h - 1) >= 0]
        s = draw(st.sampled_from(letters))
        cap = h if s in "UH" else h - 1
        steps.append(s)
        weights.append(draw(st.integers(min_value=0, max_value=cap)))
        h += {"U": 1, "D": -1}.get(s, 0)
    return validate_laguerre("".join(steps), weights)


@st.composite
def labeled_ballot_paths(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    steps = []
    weights = []
    h = 0
    for _ in range(n):
        s = draw(st.sampled_from("UD" if h else "U"))
        cap = h if s == "U" else h - 1
        steps.append(s)
        weights.append(draw(st.integers(min_value=0, max_value=cap)))
        h += 1 if s == "U" else -1
    return validate_labeled_ballot("".join(steps), weights)


# rcalt and wip3 are the images of snakes under psi and phi_inverse, bijections
STRATEGIES = {
    "perm": permutations(),
    "snakes": snakes(),
    "lbp": labeled_ballot_paths(),
    "laguerre": laguerre_histories(),
    "rcalt": snakes().map(bijections.psi),
    "wip3": snakes().map(bijections.phi_inverse),
}


@functools.lru_cache(maxsize=None)
def _completions(n):
    return sampling.lbp_completions(n)


def _lbp(n, rng):
    return paths.parse_labeled_ballot(sampling.sample_lbp(n, rng, _completions(n)))


def _perm(n, rng):
    return permcore.parse_perm(sampling.sample_perm(n, rng))


# n, rng -> an object of size n, uniform over its domain: the maps are bijections
SAMPLERS = {
    "perm": _perm,
    "laguerre": lambda n, rng: bijections.fz(_perm(n, rng)),
    "lbp": _lbp,
    "snakes": lambda n, rng: bijections.lbp_to_snake(_lbp(n, rng)),
    "rcalt": lambda n, rng: bijections.lbp_to_rcalt(_lbp(n, rng)),
    "wip3": lambda n, rng: bijections.phi_inverse(bijections.lbp_to_snake(_lbp(n, rng))),
}


def test_every_domain_of_the_predicates_has_a_strategy_and_a_sampler():
    assert sorted(PREDICATES) == sorted(STRATEGIES) == sorted(SAMPLERS)


@pytest.mark.parametrize("domain", sorted(STRATEGIES))
@given(data=st.data())
def test_every_predicate_holds_on_random_objects(domain, data):
    _holds_on(domain, data.draw(STRATEGIES[domain], label=domain))


def _row_test(row, domain):
    assert row in dict(PREDICATES[domain]), f"{row} has no {domain} side"
    return given(STRATEGIES[domain])(lambda obj: _holds_on(domain, obj, only=row))


# one row's predicate on its domain, each under the name of the test that restated it
test_invert_is_involution = _row_test("permcore/invert-involution", "perm")
test_rc_is_involution = _row_test("permcore/rc-involution", "perm")
test_foata_roundtrips = _row_test("permcore/foata-roundtrip", "perm")
test_foata_transports_cycle_peaks_to_left_peaks = _row_test("permcore/foata-maps-cycle-peaks-to-left-peaks", "perm")
test_pattern_rc_duality = _row_test("permcore/pattern-count-rc-duality", "perm")
test_fz_roundtrip = _row_test("bijections/fz-bijective", "perm")
test_fz_commutes_with_rc = _row_test("bijections/fz-commutes-with-rc", "perm")
test_fz_inverse_then_fz = _row_test("bijections/fz-roundtrip", "laguerre")
test_pattern_sum_matches_height = _row_test("bijections/pattern-sum-matches-height", "perm")
test_psi_roundtrip_and_membership = _row_test("bijections/psi-bijective", "snakes")
test_snake_to_lbp_roundtrip = _row_test("bijections/snake2lbp-bijective", "snakes")
test_history_rc_is_involution = _row_test("paths/history-rc-involution", "laguerre")
test_extend_halve_roundtrip = _row_test("paths/extend-to-rc-fixed-closure", "lbp")


@pytest.mark.parametrize("n, count", [(64, 10), (512, 3)])
@pytest.mark.parametrize("domain", sorted(SAMPLERS))
def test_every_predicate_holds_on_uniform_samples(domain, n, count):
    rng = random.Random(f"{domain} {n}")
    for _ in range(count):
        _holds_on(domain, SAMPLERS[domain](n, rng))


# what each map's construction proves of its image, which the map therefore leaves
# unchecked: map -> (its module, its domain, the property of (object, image))
PROVED = {
    "psi": (bijections, "snakes", lambda snake, p: len(p) == 2 * len(snake)
            and permcore.is_permutation(p) and permcore.reverse_complement(p) == p),
    "psi_inverse": (bijections, "rcalt", lambda perm, snake: permcore.is_signed_permutation(snake)),
    "phi": (bijections, "wip3", lambda wip, snake: permcore.is_signed_permutation(snake)),
    "lbp_to_rcalt": (bijections, "lbp", lambda lbp, p: len(p) == 2 * len(lbp.steps)
                     and permcore.is_permutation(p)),
    "extend_to_rc_fixed": (paths, "lbp", lambda lbp, hw: validate_laguerre(*hw) == hw == paths.history_rc(hw)),
}


def _proved_on(name, obj):
    module, domain, proved = PROVED[name]
    assert proved(obj, getattr(module, name)(obj)), f"{name} on {domain} {verify._text(domain, obj)!r}"


@pytest.mark.parametrize("name", sorted(PROVED))
def test_what_a_map_proves_holds_on_every_object_up_to_7(name):
    for n in range(8):
        for obj in verify._objects(PROVED[name][1], n):
            _proved_on(name, obj)


@pytest.mark.parametrize("n, count", [(64, 10), (512, 3)])
@pytest.mark.parametrize("name", sorted(PROVED))
def test_what_a_map_proves_holds_on_uniform_samples(name, n, count):
    domain = PROVED[name][1]
    rng = random.Random(f"{domain} {n}")  # the draws of test_every_predicate_holds_on_uniform_samples
    for _ in range(count):
        _proved_on(name, SAMPLERS[domain](n, rng))


@given(labeled_ballot_paths())
def test_wbar_is_involution(lbp):
    # the wbar row's predicate, which takes the caps that the row computes once per step word
    assert verify._wbar_complements(lbp, paths.weight_caps(lbp))
    assert paths.wbar(paths.wbar(lbp)) == lbp


@given(labeled_ballot_paths())
def test_wbar_text_roundtrip(lbp):
    text = paths.format_path(lbp)
    assert paths.format_path(paths.parse_labeled_ballot(text)) == text


@settings(max_examples=30)
@given(st.data())
def test_phi_on_random_marked_permutations(data):
    # phi_step1_inverse accepts any permutation with marked cycle peaks, so
    # random (perm, marks) pairs probe the column tie-breaking directly
    p = data.draw(permutations(max_n=9))
    peaks = sorted(permcore.cycle_peaks(p))
    marks = frozenset(data.draw(st.sets(st.sampled_from(peaks)))) if peaks else frozenset()
    mp = permcore.MarkedPermutation(tuple(p), marks)
    wip = bijections.phi_step1_inverse(mp)
    assert bijections.phi_step1(wip) == mp


def test_module_doctests():
    for mod in (springerbij, bijections, cli, errors, families, paths, permcore, verify):
        failures = doctest.testmod(mod).failed
        assert failures == 0, mod.__name__


def test_verify_registry_all_pass_small():
    results = verify.run(3)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    names = [r.name for r in results]
    assert names == sorted(names)


def test_verify_row_names_the_object_when_a_map_raises(monkeypatch):
    monkeypatch.setattr(bijections, "rcalt_to_lbp", lambda perm: perm)
    detail = {r.name: r.detail for r in verify.run(3)}["bijections/bigpsi-roundtrip"]
    assert detail.startswith("Counterexample: rcalt ")
    assert "AttributeError" in detail

"""The checks cannot pass vacuously: no assert anywhere in the library, so the
self-checks and the verify rows also run under python -O, and wrong maps fail rows."""

import ast
import collections
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import springerbij
from springerbij import bijections, families, paths, permcore, verify
from springerbij.cli import main
from springerbij.errors import NotRcFixed
from springerbij.families import ThreeWIP
from springerbij.permcore import MarkedPermutation, left_peaks

SRC = Path(springerbij.__file__).resolve().parent


def test_verify_has_no_assert_statement():
    # python -O strips assert, which would make every verify row and every
    # self-check of the maps pass; the test covers every module of the package
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text())
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], module.name


def _run_optimized(code: str) -> str:
    """stdout of code run by a python -O child that imports the package from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, check=True).stdout


def test_faulty_bijection_fails_under_optimize_flag():
    stdout = _run_optimized(
        "from springerbij import bijections, verify\n"
        "good = bijections.psi_inverse\n"
        "bijections.psi_inverse = lambda perm: good(perm)[::-1]\n"
        "for r in verify.run(3):\n"
        "    print(r.name, 'PASS' if r.passed else 'FAIL', r.detail)\n"
    )
    rows = {line.split()[0]: line for line in stdout.splitlines()}
    assert rows["bijections/psi-bijective"].split()[1] == "FAIL"
    assert rows["bijections/psi-roundtrip"].split()[1] == "FAIL"
    # each detail names the first counterexample of its side in canonical text
    assert "Counterexample: snakes '1 -2'" in rows["bijections/psi-bijective"]
    assert "Counterexample: rcalt '2 1 4 3'" in rows["bijections/psi-roundtrip"]


def test_map_self_check_runs_under_optimize_flag():
    # without its bars, the README's example maps to a permutation, not a snake
    stdout = _run_optimized(
        "from springerbij import bijections\n"
        "from springerbij.families import ThreeWIP\n"
        "bijections.place_bars = lambda tau_tilde: tau_tilde.perm\n"
        "try:\n"
        "    print(bijections.phi(ThreeWIP((1, 5, 2, 6, 7, 3, 8, 9, 4), (2, 5, 6, 3, 1, 7, 8, 4, 9))))\n"
        "except ValueError as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    assert stdout == "NotASnake\n"


def test_bar_read_at_the_peak_fails_the_bars_row(monkeypatch):
    # phi's step 3 puts the bar on the right valley of a marked left peak, not on the peak
    def unbar_at_peak(snake):
        word = tuple(abs(v) for v in snake)
        return MarkedPermutation(word, frozenset(word[p - 1] for p in left_peaks(word) if snake[p - 1] < 0))

    monkeypatch.setattr(bijections, "unbar", unbar_at_peak)
    row = next(r for r in verify.run(4) if r.name == "bijections/bars-always-consistent")
    assert not row.passed
    assert "Counterexample: snakes '2 -1'" in row.detail


def _open_path_validator(path):
    # admits open paths and level steps: right for neither lbp nor laguerre
    paths._caps(path.steps, path.weights, paths.MOTZKIN_ALPHABET, closed=False)


@pytest.mark.parametrize("family, mutant", [("laguerre", "U;0"), ("lbp", "H;0")])
def test_open_path_validator_fails_the_fuzz_row(monkeypatch, family, mutant):
    # a step-letter mutation of the member H;0 (laguerre) or U;0 (lbp) is accepted
    monkeypatch.setitem(families.FAMILIES, family, dataclasses.replace(
        families.FAMILIES[family], validate=_open_path_validator))
    with pytest.raises(verify.Counterexample) as excinfo:
        verify._validator_fuzz(4)
    assert str(excinfo.value) == f"{family}: validator disagrees with membership on {mutant!r}"


def test_negative_bound_is_refused():
    # at n_max < 0 every row would pass without checking an object
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        verify.run(-1)


@pytest.mark.parametrize("family", sorted(families.FAMILIES))
def test_faulty_lines_fails_the_canonical_order_row(monkeypatch, family):
    # a text function that drops the last newline of each piece
    fam = families.FAMILIES[family]
    monkeypatch.setitem(families.FAMILIES, family, dataclasses.replace(
        fam, text=lambda n: (piece[:-1] for piece in fam.text(n))))
    row = next(r for r in verify.run(2) if r.name == "families/canonical-order")
    last = fam.render(list(fam.generate(0))[-1])
    assert not row.passed
    assert row.detail == f"Counterexample: {family} n=0: text() differs from render at {last!r}"


def _reversed(obj):
    if isinstance(obj, ThreeWIP):
        return ThreeWIP(obj.sigma[::-1], obj.pi[::-1])
    if isinstance(obj, (paths.LabeledBallotPath, paths.LaguerreHistory)):
        return type(obj)(obj.steps[::-1], obj.weights[::-1])
    return obj[::-1]


FAULTS = {"identity": lambda good: lambda obj: obj,
          "reversal": lambda good: lambda obj: _reversed(good(obj))}
MAPS = [(bijections, name) for name in (
    "phi", "phi_inverse", "psi", "psi_inverse", "fz", "fz_inverse",
    "rcalt_to_lbp", "lbp_to_rcalt", "snake_to_lbp", "lbp_to_snake")] + [(paths, "wbar")]


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("module, name", MAPS, ids=[name for _, name in MAPS])
def test_wrong_map_fails_a_row(monkeypatch, module, name, fault):
    monkeypatch.setattr(module, name, FAULTS[fault](getattr(module, name)))
    failed = [r.name for r in verify.run(3) if not r.passed]
    assert failed, f"{name} with a {fault} fault passes every row"


def _word_reversed(good):
    # the reversal fault of cycle_peaks, whose set has no order: the peaks of the reversed word
    return lambda perm: good(tuple(perm)[::-1])


# (module, kernel, fault) -> the per-object row that fails at n <= 4. The involution
# rows state their maps' defining formulas, so each catches an identity of its map
KERNEL_FAULTS = {
    (permcore, "invert", "identity"): "permcore/invert-involution",
    (permcore, "invert", "reversal"): "permcore/invert-involution",
    (permcore, "reverse_complement", "identity"): "permcore/rc-involution",
    (permcore, "reverse_complement", "reversal"): "permcore/pattern-count-rc-duality",
    (permcore, "foata", "identity"): "permcore/foata-roundtrip",
    (permcore, "foata", "reversal"): "permcore/foata-roundtrip",
    (permcore, "foata_inverse", "identity"): "permcore/foata-roundtrip",
    (permcore, "foata_inverse", "reversal"): "permcore/foata-roundtrip",
    (permcore, "left_peaks", "identity"): "permcore/left-peak-has-right-valley",
    (permcore, "left_peaks", "reversal"): "permcore/left-peak-has-right-valley",
    (permcore, "right_valleys", "identity"): "permcore/left-peak-has-right-valley",
    (permcore, "right_valleys", "reversal"): "permcore/left-peak-has-right-valley",
    (permcore, "cycle_peaks", "identity"): "permcore/foata-maps-cycle-peaks-to-left-peaks",
    (permcore, "cycle_peaks", "reversal"): "permcore/foata-maps-cycle-peaks-to-left-peaks",
    (paths, "history_rc", "identity"): "paths/history-rc-involution",
    (paths, "history_rc", "reversal"): "paths/history-rc-involution",
}


@pytest.mark.parametrize("module, name, fault", KERNEL_FAULTS,
                         ids=[f"{name}-{fault}" for _, name, fault in KERNEL_FAULTS])
def test_wrong_kernel_fails_its_row(monkeypatch, module, name, fault):
    wrong = _word_reversed if (name, fault) == ("cycle_peaks", "reversal") else FAULTS[fault]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    with pytest.raises(verify.Counterexample):
        _row(KERNEL_FAULTS[module, name, fault])(4)


@pytest.mark.parametrize("module, name, row, first", [
    (permcore, "invert", "permcore/invert-involution", "perm '2 3 1'"),
    (permcore, "reverse_complement", "permcore/rc-involution", "perm '1 3 2'"),
    (paths, "history_rc", "paths/history-rc-involution", "laguerre 'HUD;0,0,0'"),
], ids=["invert", "reverse_complement", "history_rc"])
def test_involution_rows_fail_an_identity_fault(monkeypatch, module, name, row, first):
    # f(f(x)) == x holds for f = identity; each row checks the formula that defines f
    # and names the first object in canonical order that the identity gets wrong
    monkeypatch.setattr(module, name, FAULTS["identity"](getattr(module, name)))
    with pytest.raises(verify.Counterexample) as excinfo:
        _row(row)(4)
    assert str(excinfo.value) == first


def _laguerre_typed(good):
    # the right step word and weights, in the wrong record
    return lambda lbp: paths.LaguerreHistory(*good(lbp))


def _wrong_on_one(good):
    # the complement everywhere but on UUUU;0,0,0,0, which it leaves fixed
    odd_one = paths.LabeledBallotPath("UUUU", (0, 0, 0, 0))
    return lambda lbp: lbp if lbp == odd_one else good(lbp)


WBAR_FAULTS = {**FAULTS, "laguerre-typed": _laguerre_typed, "wrong-on-one": _wrong_on_one}


def _row(name):
    return next(check for row, _, check in verify.PROPERTIES if row == name)


@pytest.mark.parametrize("fault", sorted(WBAR_FAULTS))
def test_wrong_wbar_fails_the_wbar_row_alone(monkeypatch, fault):
    # the row calls wbar once per path; each fault still fails the row on its own
    monkeypatch.setattr(paths, "wbar", WBAR_FAULTS[fault](paths.wbar))
    with pytest.raises(verify.Counterexample) as excinfo:
        _row("paths/wbar-involution")(4)
    if fault == "wrong-on-one":
        assert str(excinfo.value) == "lbp 'UUUU;0,0,0,0'"


def _count_plus_one(good):
    return lambda perm, value: good(perm, value) + 1


def _count_from_first_position(good):
    # the range starts at k = 0, so p[0] = 0 becomes p[-1], the last entry
    def count(perm, value):
        j = list(perm).index(value)
        return sum(1 for k in range(j) if perm[k] < value < perm[k - 1])
    return count


@pytest.mark.parametrize("name, fault", [
    ("count_pat_31_2_at", _count_plus_one),
    ("count_pat_2_31_at", _count_plus_one),
    ("count_pat_31_2_at", _count_from_first_position),
], ids=["31_2-plus-one", "2_31-plus-one", "31_2-from-first-position"])
def test_off_by_one_count_fails_the_duality_row(monkeypatch, name, fault):
    monkeypatch.setattr(permcore, name, fault(getattr(permcore, name)))
    with pytest.raises(verify.Counterexample):
        _row("permcore/pattern-count-rc-duality")(4)


def test_dropped_bar_fails_the_bars_row(monkeypatch):
    # place_bars loses the bar of its last barred entry
    good = bijections.place_bars

    def drop_last_bar(tau_tilde):
        snake = list(good(tau_tilde))
        barred = [i for i, v in enumerate(snake) if v < 0]
        if barred:
            snake[barred[-1]] *= -1
        return tuple(snake)

    monkeypatch.setattr(bijections, "place_bars", drop_last_bar)
    with pytest.raises(verify.Counterexample, match=r"^snakes '1 -2'$"):
        _row("bijections/bars-always-consistent")(4)


def test_wbar_row_runs_caps_once_per_path_and_once_per_step_word(monkeypatch):
    # one wbar call per path, and weight_caps once per distinct step word
    calls = []
    real = paths._caps
    monkeypatch.setattr(paths, "_caps", lambda s, *a, **k: calls.append(s) or real(s, *a, **k))
    verify._wbar_involution(6)
    objects = [lbp for n in range(7) for lbp in families.enumerate_lbp(n)]
    assert len(calls) == len(objects) + len({lbp.steps for lbp in objects})


def test_closure_row_runs_caps_twice_per_path(monkeypatch):
    # extend_to_rc_fixed on the path, whose history is rc-fixed as built, and
    # halve_rc_fixed on the history. The row itself calls no history_rc.
    calls = []
    real = paths._caps
    monkeypatch.setattr(paths, "_caps", lambda s, *a, **k: calls.append(s) or real(s, *a, **k))
    _row("paths/extend-to-rc-fixed-closure")(5)
    assert len(calls) == 2 * sum(1 for n in range(6) for _ in families.enumerate_lbp(n))


def test_bars_row_runs_unbar_and_place_bars_once_per_snake(monkeypatch):
    # each kernel scans the snake once; the row runs both maps on every snake
    calls = collections.Counter()
    for fn in ("unbar", "place_bars"):
        real = getattr(bijections, fn)
        monkeypatch.setattr(bijections, fn, lambda x, fn=fn, real=real: calls.update([fn]) or real(x))
    _row("bijections/bars-always-consistent")(6)
    snakes = sum(1 for n in range(7) for _ in families.enumerate_snakes(n))
    assert calls == {"unbar": snakes, "place_bars": snakes}


# bijection -> its forward and inverse function, as its BIJECTIONS lambdas look them up by
# name, and the domains that its rows walk; snake2lbp's one row walks the snakes alone
WALKS = {
    "bigpsi": ("rcalt_to_lbp", "lbp_to_rcalt", ["rcalt", "lbp"]),
    "fz": ("fz", "fz_inverse", ["perm", "laguerre"]),
    "phi": ("phi", "phi_inverse", ["wip3", "snakes"]),
    "psi": ("psi", "psi_inverse", ["snakes", "rcalt"]),
    "snake2lbp": ("snake_to_lbp", "lbp_to_snake", ["snakes"]),
}


@pytest.mark.parametrize("name", sorted(WALKS))
def test_bijection_rows_map_each_object_once(monkeypatch, name):
    # the bijective row checks inverse(f(x)) == x with the f(x) that it holds, and the
    # roundtrip row f(inverse(y)) == y: each map runs once per object of each walked domain
    forward, inverse, domains = WALKS[name]
    calls = collections.Counter()
    for fn in (forward, inverse):
        real = getattr(bijections, fn)
        monkeypatch.setattr(bijections, fn, lambda x, fn=fn, real=real: calls.update([fn]) or real(x))
    rows = [row for row, _, _ in verify.PROPERTIES
            if row in (f"bijections/{name}-bijective", f"bijections/{name}-roundtrip")]
    for row in rows:
        _row(row)(5)
    objects = sum(1 for domain in domains for n in range(6) for _ in verify._objects(domain, n))
    assert rows and calls == {forward: objects, inverse: objects}


# --- the failure branches of the generic checks, each under one fault ---------

def _replace_family(monkeypatch, name, **fields):
    monkeypatch.setitem(families.FAMILIES, name, dataclasses.replace(families.FAMILIES[name], **fields))


def test_dropped_domain_object_fails_the_bijective_row(monkeypatch):
    # at n = 3 the 3-WIP generator loses its last object, so one snake has no preimage
    good = families.FAMILIES["wip3"].generate
    last = list(good(3))[-1]
    _replace_family(monkeypatch, "wip3", generate=lambda n: (w for w in good(n) if n != 3 or w != last))
    with pytest.raises(verify.Counterexample) as excinfo:
        _row("bijections/phi-bijective")(6)
    assert str(excinfo.value) == f"snakes {verify._text('snakes', bijections.phi(last))!r} is no image"


def test_repeated_image_fails_the_bijective_row(monkeypatch):
    # psi maps every snake to the image of the first snake of its size: '1 -2', then '2 -1'
    good = bijections.psi
    firsts = {n: good(next(families.enumerate_snakes(n))) for n in range(7)}
    monkeypatch.setattr(bijections, "psi", lambda snake: firsts[len(snake)])
    with pytest.raises(verify.Counterexample) as excinfo:
        _row("bijections/psi-bijective")(6)
    assert str(excinfo.value) == "snakes '2 -1': image repeats"


def test_image_outside_the_codomain_fails_the_bijective_row(monkeypatch):
    # a Laguerre history of length 2 is no image of the empty permutation
    monkeypatch.setattr(bijections, "fz", lambda perm: paths.LaguerreHistory("UD", (0, 0)))
    with pytest.raises(verify.Counterexample) as excinfo:
        _row("bijections/fz-bijective")(7)
    assert str(excinfo.value) == "perm '': image is not in laguerre"


def test_unhashable_image_fails_the_bijective_row_naming_the_object(monkeypatch):
    # a list image cannot be looked up in the set of codomain objects; the row still
    # names the first snake, the empty one, whose image is no rcalt
    good = bijections.psi
    monkeypatch.setattr(bijections, "psi", lambda snake: list(good(snake)))
    with pytest.raises(verify.Counterexample, match=r"^snakes '': image is not in rcalt$"):
        _row("bijections/psi-bijective")(3)


def test_roundtrip_row_runs_the_record_in_the_registry_when_it_runs(monkeypatch):
    # a record replaced after import is the one the round trip checks, as map would run it:
    # an inverse that reverses its result first breaks f(inverse(y)) == y at n = 2
    good = bijections.BIJECTIONS["psi"]
    monkeypatch.setitem(bijections.BIJECTIONS, "psi", good._replace(inverse=lambda y: good.inverse(y)[::-1]))
    with pytest.raises(verify.Counterexample, match=r"^rcalt '2 1 4 3'"):
        _row("bijections/psi-roundtrip")(2)


def test_predicate_that_raises_fails_its_row_naming_the_object():
    def no_231(p):
        if tuple(p) == (2, 3, 1):
            raise ZeroDivisionError("no 2 3 1")
        return True

    with pytest.raises(verify.Counterexample) as excinfo:
        verify._holds(4, [("perm", no_231)])
    assert str(excinfo.value) == "perm '2 3 1': ZeroDivisionError: no 2 3 1"


@pytest.mark.parametrize("fn, target", [("psi", (2, -1)), ("psi_inverse", (3, 1, 4, 2))])
def test_map_that_raises_fails_the_bijective_row_naming_the_object(monkeypatch, fn, target):
    # psi is the forward map; psi_inverse runs in the side inverse(f(x)) == x, on
    # psi(2 -1) = 3 1 4 2, and the row names the snake either way
    good = getattr(bijections, fn)

    def refuses(x):
        if tuple(x) == target:
            raise NotRcFixed(f"{fn} refuses")
        return good(x)

    monkeypatch.setattr(bijections, fn, refuses)
    with pytest.raises(verify.Counterexample) as excinfo:
        _row("bijections/psi-bijective")(6)
    assert str(excinfo.value) == f"snakes '2 -1': NotRcFixed: {fn} refuses"


def test_generator_that_raises_fails_its_rows_naming_no_object(monkeypatch):
    # at n = 3 the snake generator raises after its last snake; each row that walks the
    # snakes as a domain, a codomain or a predicate's side fails with that error alone
    good = families.FAMILIES["snakes"].generate

    def runs_dry(n):
        yield from good(n)
        if n == 3:
            raise RuntimeError("snakes ran dry")

    _replace_family(monkeypatch, "snakes", generate=runs_dry)
    rows = {r.name: r for r in verify.run(4)}
    for name in ("bars-always-consistent", "phi-bijective", "psi-bijective",
                 "snake-sign-pattern", "snake2lbp-bijective"):
        assert not rows[f"bijections/{name}"].passed
        assert rows[f"bijections/{name}"].detail == "RuntimeError: snakes ran dry"


@pytest.mark.parametrize("right, flipped, fails", [
    ((1, -2), (1, 2), True),   # a sign flipped at an entry that is no right valley
    ((2, -1), (2, 1), False),  # at a right valley, which takes either sign
])
def test_snake_with_a_flipped_sign_fails_both_sign_rows_but_at_a_valley(monkeypatch, right, flipped, fails):
    # the snake generator yields `flipped` in place of `right`: the sign row and the bars
    # row each leave the signs of right valleys free and fix every other entry's sign
    good = families.FAMILIES["snakes"].generate
    _replace_family(monkeypatch, "snakes", generate=lambda n: (flipped if s == right else s for s in good(n)))
    for name in ("bijections/snake-sign-pattern", "bijections/bars-always-consistent"):
        if fails:
            with pytest.raises(verify.Counterexample, match=r"^snakes '1 2'$"):
                _row(name)(4)
        else:
            assert _row(name)(4) == ""


def test_off_by_one_oracle_fails_the_count_row(monkeypatch):
    good = families.FAMILIES["lbp"].oracle
    _replace_family(monkeypatch, "lbp", oracle=lambda n: good(n) + (n == 2))
    with pytest.raises(verify.Counterexample, match=r"^n=2: enumerated \{'lbp': 3\}, oracles \{'lbp': 4\}$"):
        _row("paths/lbp-count-dp-matches-enumeration")(9)


def _springer_dp_wrong_at(wrong, good):
    return lambda m: tuple(v + (n == wrong) for n, v in enumerate(good(m)))


def test_springer_dp_wrong_at_one_n_fails_the_egf_row(monkeypatch):
    monkeypatch.setattr(paths, "lbp_dp_counts", _springer_dp_wrong_at(5, paths.lbp_dp_counts))
    with pytest.raises(verify.Counterexample, match=r"^n=5: egf 361, dp 362$"):
        _row("paths/lbp-count-dp-matches-egf")(12)


def test_springer_dp_wrong_at_one_n_stops_the_springer_command(monkeypatch):
    # the command checks every value it prints, not only those up to the egf row's cap of 12
    good = paths.lbp_dp_counts
    for wrong, n_max in [(5, "6"), (13, "20")]:
        monkeypatch.setattr(paths, "lbp_dp_counts", _springer_dp_wrong_at(wrong, good))
        with pytest.raises(RuntimeError, match="the EGF and the DP give different Springer numbers"):
            main(["springer", "--n-max", n_max], stdout=io.StringIO(), stderr=io.StringIO())


def test_objects_out_of_order_fail_the_canonical_order_row(monkeypatch):
    # at n = 2 the snake generator yields its first two objects swapped
    good = families.FAMILIES["snakes"].generate

    def swapped(n):
        objects = list(good(n))
        if n == 2:
            objects[:2] = objects[1::-1]
        return iter(objects)

    _replace_family(monkeypatch, "snakes", generate=swapped)
    first, second = list(good(2))[:2]
    with pytest.raises(verify.Counterexample) as excinfo:
        verify._canonical_order(2)
    assert str(excinfo.value) == (
        f"snakes n=2: {verify._text('snakes', second)!r} !< {verify._text('snakes', first)!r}")


def test_validator_rejecting_a_member_fails_the_fuzz_row(monkeypatch):
    good = families.FAMILIES["snakes"].validate

    def rejects_2_minus_1(snake):
        if tuple(snake) == (2, -1):
            raise ValueError("rejected")
        return good(snake)

    _replace_family(monkeypatch, "snakes", validate=rejects_2_minus_1)
    with pytest.raises(verify.Counterexample, match=r"^snakes emitted invalid '2 -1'$"):
        verify._validator_fuzz(2)


def _last_weight_up(good):
    # the last weight of the image is one too high
    def wrong(obj):
        image = good(obj)
        return image._replace(weights=image.weights[:-1] + (image.weights[-1] + 1,)) if image.steps else image
    return wrong


def test_history_rc_off_by_one_weight_fails_the_involution_row(monkeypatch):
    # extend_to_rc_fixed's history is rc-fixed as built: it calls no history_rc, and the
    # closure row passes; the involution row states history_rc's formula and fails
    calls = []
    wrong = _last_weight_up(paths.history_rc)
    monkeypatch.setattr(paths, "history_rc", lambda hw: calls.append(hw) or wrong(hw))
    assert paths.extend_to_rc_fixed(paths.LabeledBallotPath("U", (0,))) == paths.LaguerreHistory("UD", (0, 0))
    _row("paths/extend-to-rc-fixed-closure")(7)
    assert calls == []
    with pytest.raises(verify.Counterexample) as excinfo:
        _row("paths/history-rc-involution")(7)
    assert str(excinfo.value) == "laguerre 'H;0'"


def _psi_mirror_2n(good):
    # the mirrored half (the second for odd n, the first for even n) takes 2n - v for 2n + 1 - v
    def wrong(snake):
        full, n = list(good(snake)), len(snake)
        lo = n if n % 2 else 0
        full[lo:lo + n] = [v - 1 for v in full[lo:lo + n]]
        return tuple(full)
    return wrong


# faults in what a map builds, past the output checks that the map leaves to its
# construction (psi's even length, rc-invariance and permutation tests, psi_inverse's
# signed-permutation test, extend_to_rc_fixed's history_rc round): (targets, fault)
# -> the row of verify.run(6) that fails and its first counterexample
CONSTRUCTION_FAULTS = {
    "psi-mirror-2n-v": ([(bijections, "psi")], _psi_mirror_2n,
                        "bijections/psi-bijective", "snakes '1': image is not in rcalt"),
    "psi-inverse-shift": ([(bijections, "psi_inverse")],  # positives shift down by n - 1
                          lambda good: lambda perm: tuple(v + (v > 0) for v in good(perm)),
                          "bijections/psi-bijective", "snakes '1': inverse(f(x)) != x"),
    "extension-last-weight-up": ([(paths, "extend_to_rc_fixed"), (bijections, "extend_to_rc_fixed")],
                                 _last_weight_up, "paths/extend-to-rc-fixed-closure",
                                 "lbp 'U;0': WeightOutOfRange: weight 1 at step 2 outside 0..0"),
}


@pytest.mark.parametrize("fault", sorted(CONSTRUCTION_FAULTS))
def test_construction_fault_fails_a_named_row(monkeypatch, fault):
    targets, wrap, row, first = CONSTRUCTION_FAULTS[fault]
    for module, name in targets:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    results = {r.name: r for r in verify.run(6)}
    assert (results[row].passed, results[row].detail) == (False, f"Counterexample: {first}")

"""Golden digests of the `map` command: every bijection in both directions, with
and without --trace, each on one seeded input.

An input holds valid lines of the source domain, each followed by two
mutants. The first changes one character: it replaces, deletes or inserts a
character drawn from the characters of the domain's texts. The second swaps
two entries, or two letters of a step word, so that it more often parses and
reaches the map's own input check. The valid lines are every object with n <= 2, a seeded sample with 3 <= n <= 6, and, for
permutations and weighted paths, seeded random objects of length 40. The test
pins the SHA-256 of stdout, the SHA-256 of stderr and the exit code. Each
stderr line of a rejected input names its exception class, so the digests pin
those classes as well.

A second test holds --trace to adding only `trace ` lines: for every
bijection and direction, stdout, the exit code and the other stderr lines are
those of the run without it.

A change meant to keep the CLI output byte-identical must pass this test
unchanged. After a deliberate change of output, print new digests with

    PYTHONPATH=src python tests/test_map_golden.py
"""

import hashlib
import io
import random

import pytest

from springerbij import families
from springerbij.bijections import BIJECTIONS
from springerbij.cli import main

RISE = {"U": 1, "D": -1, "H": 0, "T": 0}

# (bijection, --inverse, --trace) -> (SHA-256 of stdout, SHA-256 of stderr, exit code)
GOLDEN = {
    ('phi', False, False): ('b14509c2dd941166441e251398db98f87b2c29afafa644dccc29ed5809bb036c', '8a92acdcc2144d7ff98c20e7400859fc7c574508efc2b47d2d76ba9b26672e99', 1),
    ('phi', False, True): ('b14509c2dd941166441e251398db98f87b2c29afafa644dccc29ed5809bb036c', '02c8984a421d333e1b38906504691ffd978f9ae472a62125bf5eed6bc66fbc93', 1),
    ('phi', True, False): ('b997f02708b94bb341916881d775215ea81ae1400720186280bad5e13561d972', '260915b471a14c31b5c9d8287e750e10bbd5427c6c8cab44b77ad35eb9b82fc3', 1),
    ('phi', True, True): ('b997f02708b94bb341916881d775215ea81ae1400720186280bad5e13561d972', 'ddc58f45b9da75799da31c1c1ed5840aabe5f67067fff7eb892df3ae631579e3', 1),
    ('psi', False, False): ('a00e429907283876425e1ff60053a57c01084345be52645582cb14a0d9dbd400', '260915b471a14c31b5c9d8287e750e10bbd5427c6c8cab44b77ad35eb9b82fc3', 1),
    ('psi', False, True): ('a00e429907283876425e1ff60053a57c01084345be52645582cb14a0d9dbd400', '260915b471a14c31b5c9d8287e750e10bbd5427c6c8cab44b77ad35eb9b82fc3', 1),
    ('psi', True, False): ('770030b4cbf3b7e7fb1c92320bbe167ec64cb2e21c6befb83a7fea79fb057ed3', '3c4e6c5a6948653ffc785a977a3f68465c84ddb65aa3a444f1c326e44509b18b', 1),
    ('psi', True, True): ('770030b4cbf3b7e7fb1c92320bbe167ec64cb2e21c6befb83a7fea79fb057ed3', '3c4e6c5a6948653ffc785a977a3f68465c84ddb65aa3a444f1c326e44509b18b', 1),
    ('fz', False, False): ('b6141e3088d419ff6ca2798709e87c86f194270100a5d1d77c9e993281d8b204', 'b3ba5a1c1d84750f4be1be0c936292ded237c4caa4c48eb7086c2a8ed19a387a', 1),
    ('fz', False, True): ('b6141e3088d419ff6ca2798709e87c86f194270100a5d1d77c9e993281d8b204', 'b3ba5a1c1d84750f4be1be0c936292ded237c4caa4c48eb7086c2a8ed19a387a', 1),
    ('fz', True, False): ('62824236e1572f2609f1e15276f0c3d78cdafbcb002adb6c429f83d1b90c4461', 'c6cd7c0209e875b1816af65b69ddbf6ecefd82332fe6b7025a10e0354912db2b', 1),
    ('fz', True, True): ('62824236e1572f2609f1e15276f0c3d78cdafbcb002adb6c429f83d1b90c4461', 'c6cd7c0209e875b1816af65b69ddbf6ecefd82332fe6b7025a10e0354912db2b', 1),
    ('bigpsi', False, False): ('3f88c6d11433354e47e994d00e64c78e17da8d7d13231671999cd60ba6d52acf', '3c4e6c5a6948653ffc785a977a3f68465c84ddb65aa3a444f1c326e44509b18b', 1),
    ('bigpsi', False, True): ('3f88c6d11433354e47e994d00e64c78e17da8d7d13231671999cd60ba6d52acf', '3c4e6c5a6948653ffc785a977a3f68465c84ddb65aa3a444f1c326e44509b18b', 1),
    ('bigpsi', True, False): ('83beff506cede9e4321bbb23c7725c263099817764b7bb002480665171be2e54', 'c7d9a3f16b47780b8d6ce6a08b27008be82245d9ee9e070f539c1ad56beac576', 1),
    ('bigpsi', True, True): ('83beff506cede9e4321bbb23c7725c263099817764b7bb002480665171be2e54', 'c7d9a3f16b47780b8d6ce6a08b27008be82245d9ee9e070f539c1ad56beac576', 1),
    ('snake2lbp', False, False): ('9e7b6239952dee1516a694bc83b9efd4946df5998fdfe5234d3a2f6341715a90', '260915b471a14c31b5c9d8287e750e10bbd5427c6c8cab44b77ad35eb9b82fc3', 1),
    ('snake2lbp', False, True): ('9e7b6239952dee1516a694bc83b9efd4946df5998fdfe5234d3a2f6341715a90', '260915b471a14c31b5c9d8287e750e10bbd5427c6c8cab44b77ad35eb9b82fc3', 1),
    ('snake2lbp', True, False): ('f8bca7577d3ce089ec35a1008ffd538f4aa52fd21958459d2fb70454fb447340', 'c7d9a3f16b47780b8d6ce6a08b27008be82245d9ee9e070f539c1ad56beac576', 1),
    ('snake2lbp', True, True): ('f8bca7577d3ce089ec35a1008ffd538f4aa52fd21958459d2fb70454fb447340', 'c7d9a3f16b47780b8d6ce6a08b27008be82245d9ee9e070f539c1ad56beac576', 1),
    ('wbar', False, False): ('0cdde9fb44c240b275b10bbe0b2a44c37f5b563e174ead54df5180c4fef37929', 'c7d9a3f16b47780b8d6ce6a08b27008be82245d9ee9e070f539c1ad56beac576', 1),
    ('wbar', False, True): ('0cdde9fb44c240b275b10bbe0b2a44c37f5b563e174ead54df5180c4fef37929', 'c7d9a3f16b47780b8d6ce6a08b27008be82245d9ee9e070f539c1ad56beac576', 1),
    ('wbar', True, False): ('0cdde9fb44c240b275b10bbe0b2a44c37f5b563e174ead54df5180c4fef37929', 'c7d9a3f16b47780b8d6ce6a08b27008be82245d9ee9e070f539c1ad56beac576', 1),
    ('wbar', True, True): ('0cdde9fb44c240b275b10bbe0b2a44c37f5b563e174ead54df5180c4fef37929', 'c7d9a3f16b47780b8d6ce6a08b27008be82245d9ee9e070f539c1ad56beac576', 1),
}


def _random_path(rng, m, letters, closed):
    """A random weighted path of m steps over letters, ending on the axis if closed."""
    steps, weights, h = [], [], 0
    for left in range(m, 0, -1):
        s = rng.choice([s for s in letters if h + RISE[s] >= 0 and not (s == "T" and h == 0)
                        and not (closed and h + RISE[s] > left - 1)])
        steps.append(s)
        weights.append(rng.randint(0, h - (s in "DT")))
        h += RISE[s]
    return "".join(steps) + ";" + ",".join(map(str, weights))


def _mutant(rng, line, alphabet):
    pos = rng.randrange(len(line) + 1)
    op = rng.choice("rdi") if pos < len(line) else "i"
    if op == "d":
        return line[:pos] + line[pos + 1:]
    char = rng.choice([c for c in alphabet if op == "i" or c != line[pos]])
    return line[:pos] + char + line[pos + (op == "r"):]


def _swap(rng, line):
    word, sep, rest = line.partition(";")
    items = list(word) if sep else line.split(" ")
    if len(items) > 1:
        i, j = rng.sample(range(len(items)), 2)
        items[i], items[j] = items[j], items[i]
    return "".join(items) + sep + rest if sep else " ".join(items)


def _input(source):
    rng = random.Random(f"golden {source}")
    fam = families.domain(source)
    valid = []
    for n in range(7):
        objs = list(fam.enumerate(n))
        valid += [fam.render(obj) for obj in (objs if n <= 2 else rng.sample(objs, min(8, len(objs))))]
    for _ in range(4):
        if source == "perm":
            valid.append(" ".join(map(str, rng.sample(range(1, 41), 40))))
        elif source in ("lbp", "laguerre"):
            valid.append(_random_path(rng, 40, "UD" if source == "lbp" else "UDHT", source == "laguerre"))
    alphabet = sorted(set("".join(valid)))  # the characters of the domain's texts
    return "".join(f"{line}\n{_mutant(rng, line, alphabet)}\n{_swap(rng, line)}\n" for line in valid)


def _modes():
    return [(name, inverse, trace) for name in BIJECTIONS for inverse in (False, True) for trace in (False, True)]


def _digests(name, inverse, trace):
    bij = BIJECTIONS[name]
    argv = ["map", "--bijection", name] + ["--inverse"] * inverse + ["--trace"] * trace
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(_input(bij.codomain if inverse else bij.domain)),
                stdout=stdout, stderr=stderr)
    return (hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
            hashlib.sha256(stderr.getvalue().encode()).hexdigest(), code)


@pytest.mark.parametrize("name, inverse, trace", _modes())
def test_map_output_matches_the_golden_digests(name, inverse, trace):
    assert _digests(name, inverse, trace) == GOLDEN[name, inverse, trace]


@pytest.mark.parametrize("name, inverse", [(name, inverse) for name, inverse, trace in _modes() if trace])
def test_trace_adds_only_trace_lines(name, inverse):
    # stdout and the exit code as without --trace, and stderr too once its trace lines are dropped
    bij = BIJECTIONS[name]
    text = _input(bij.codomain if inverse else bij.domain)
    runs = []
    for trace in (False, True):
        stdout, stderr = io.StringIO(), io.StringIO()
        code = main(["map", "--bijection", name] + ["--inverse"] * inverse + ["--trace"] * trace,
                    stdin=io.StringIO(text), stdout=stdout, stderr=stderr)
        errors = [line for line in stderr.getvalue().splitlines(True) if not line.startswith("trace ")]
        runs.append((stdout.getvalue(), code, errors))
    assert runs[0] == runs[1]


def test_every_mode_has_valid_and_rejected_lines():
    for name, inverse, _ in _modes():
        bij = BIJECTIONS[name]
        text = _input(bij.codomain if inverse else bij.domain)
        stdout, stderr = io.StringIO(), io.StringIO()
        main(["map", "--bijection", name] + ["--inverse"] * inverse,
             stdin=io.StringIO(text), stdout=stdout, stderr=stderr)
        lines = text.count("\n")
        assert lines // 3 <= stdout.getvalue().count("\n") < lines, (name, inverse)
        assert stderr.getvalue().count("ERROR") >= lines // 4, (name, inverse)


if __name__ == "__main__":
    for mode in _modes():
        print(f"    {mode}: {_digests(*mode)},")

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

The map loop checks a good line once, with the map's own input check, and
runs the domain's parse only on a rejected line. Two more tests hold it to
the loop that parses every line first, kept here as the reference: the same
output in every mode on the golden inputs and on hostile lines, and, on the
same lines, every map rejects what its domain's parse rejects.

A change meant to keep the CLI output byte-identical must pass this test
unchanged. After a deliberate change of output, print new digests with

    PYTHONPATH=src python tests/test_map_golden.py
"""

import hashlib
import io
import random

import pytest

from springerbij import cli, families
from springerbij.bijections import BIJECTIONS
from springerbij.cli import main
from springerbij.errors import LineTooLong, NotCanonical

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


def _parse_first_map(args, stdin, out, err):
    """The map loop that checks each line with the domain's parse before the map
    checks it again: the reference for cli._cmd_map, which leaves a good line to
    the map's own check."""
    bij = BIJECTIONS[args.bijection]
    if args.inverse:
        source, target, apply = bij.codomain, bij.domain, bij.inverse
    else:
        source, target, apply = bij.domain, bij.codomain, bij.forward
    source, target = families.domain(source), families.domain(target)
    status, lineno = 0, 0
    while raw := stdin.readline(cli.MAP_LINE_MAX + 1):
        lineno += 1
        try:
            if len(raw) > cli.MAP_LINE_MAX and raw[-1] != "\n":
                while stdin.readline(cli.MAP_LINE_MAX + 1)[-1:] not in ("\n", ""):
                    pass
                raise LineTooLong(f"line longer than {cli.MAP_LINE_MAX} characters")
            line = raw.rstrip("\n")
            obj = source.parse(line)
            if source.render(obj) != line:
                raise NotCanonical(f"{line!r} is not canonical text")
            result = apply(obj)
            if args.trace and bij.trace:
                for label, text in bij.trace(result if args.inverse else obj):
                    err.write(f"trace {lineno} {label}: {text}\n")
        except ValueError as exc:
            reason = str(exc) or type(exc).__name__
            err.write(f"ERROR {lineno}: {type(exc).__name__}: {reason}\n")
            status = 1
            continue
        out.write(target.render(result) + "\n")
    return status


# characters a mutant may bring into any domain's text besides its own: the
# separators, a sign, a zero, the level steps (foreign to ballot paths) and junk
HOSTILE = " -/;,0HTx\t+"


def _hostile_lines(source):
    """The golden input's lines, a few hundred seeded mutants of its valid lines with
    1-3 characters replaced, deleted or inserted, for paths each valid line with one
    step letter changed, a 5,000-digit token and a line of exactly cli.MAP_LINE_MAX
    characters."""
    rng = random.Random(f"hostile {source}")
    golden = _input(source).splitlines()
    valid = golden[::3]
    alphabet = sorted(set("".join(valid)) | set(HOSTILE))
    mutants = []
    for _ in range(300):
        line = rng.choice(valid)
        for _ in range(rng.randint(1, 3)):
            line = _mutant(rng, line, alphabet)
        mutants.append(line)
    for line in valid if source in ("lbp", "laguerre") else ():  # the weights kept
        word, _, weights = line.partition(";")
        if word:
            i = rng.randrange(len(word))
            mutants.append(f"{word[:i]}{rng.choice([c for c in 'UDHT' if c != word[i]])}{word[i + 1:]};{weights}")
    big = "9" * 5000
    if source in ("lbp", "laguerre"):
        extremes = [f"U;{big}", "U" * (cli.MAP_LINE_MAX - 2) + ";0"]
    else:
        row = "1 " * (cli.MAP_LINE_MAX // 4)
        longest = (row + "/ " + row if source == "wip3" else row + row)[:cli.MAP_LINE_MAX - 1] + "1"
        extremes = [f"1 {big} / 1" if source == "wip3" else f"1 {big}", longest]
    assert len(extremes[1]) == cli.MAP_LINE_MAX
    return golden + mutants + extremes


@pytest.mark.parametrize("name, inverse", [(name, inverse) for name, inverse, trace in _modes() if trace])
def test_map_matches_the_parse_first_loop(name, inverse):
    # the same stdout, ERROR lines and exit code as the loop that parses first,
    # with and without --trace; the longest line, which is rejected and so has
    # no trace lines, goes in once
    bij = BIJECTIONS[name]
    lines = _hostile_lines(bij.codomain if inverse else bij.domain)
    for trace in (False, True):
        text = "".join(line + "\n" for line in lines[:len(lines) - trace])
        argv = ["map", "--bijection", name] + ["--inverse"] * inverse + ["--trace"] * trace
        runs = []
        for run in (lambda *streams: main(argv, *streams),
                    lambda *streams: _parse_first_map(cli.build_parser().parse_args(argv), *streams)):
            stdout, stderr = io.StringIO(), io.StringIO()
            runs.append((run(io.StringIO(text), stdout, stderr), stdout.getvalue(), stderr.getvalue()))
        assert runs[0] == runs[1], trace
        assert runs[0][2].count("ERROR") > 300


@pytest.mark.parametrize("source", sorted({bij.domain for bij in BIJECTIONS.values()}
                                          | {bij.codomain for bij in BIJECTIONS.values()}))
def test_every_map_rejects_what_the_parse_rejects(source):
    # the rule the map loop rests on: where the parse rejects a line that read
    # takes, each map out of the domain rejects read's object; where the parse
    # takes a line, read gives the parse's object. One case is left to the
    # canonical-text check: a blank line reads as the empty 3-WIP, whose text
    # is " / ", so the loop rejects it as NotCanonical before any map runs
    fam = families.domain(source)
    maps = [bij.forward for bij in BIJECTIONS.values() if bij.domain == source]
    maps += [bij.inverse for bij in BIJECTIONS.values() if bij.codomain == source]
    rejected = 0
    for line in _hostile_lines(source):
        try:
            obj = fam.read(line)
        except ValueError:
            with pytest.raises(ValueError):
                fam.parse(line)
            continue
        try:
            parsed = fam.parse(line)
        except ValueError:
            rejected += 1
            if source == "wip3" and not line.strip():
                assert fam.render(obj) != line
                continue
            for apply in maps:
                with pytest.raises(ValueError):
                    apply(obj)
        else:
            assert parsed == obj
    assert rejected >= 20


if __name__ == "__main__":
    for mode in _modes():
        print(f"    {mode}: {_digests(*mode)},")

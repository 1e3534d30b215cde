"""Command-line interface: count, enumerate, map, verify, springer.

Exit codes: 0 success, 1 data errors encountered while mapping or a failed
verification, 2 usage errors. stdout carries results only; diagnostics and
trace lines go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from . import bijections, families, verify
from .errors import NotCanonical


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="springerbij",
        description="Families counted by Springer numbers and the bijections between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print the size of a family at one length")
    count.add_argument("--family", required=True, choices=sorted(families.FAMILIES))
    count.add_argument("--n", required=True, type=int)
    count.add_argument("--method", choices=("enumerate", "oracle"), default="oracle")

    enum = sub.add_parser("enumerate", help="print a family, one object per line, in canonical text order")
    enum.add_argument("--family", required=True, choices=sorted(families.FAMILIES))
    enum.add_argument("--n", required=True, type=int)

    mp = sub.add_parser("map", help="apply a bijection to stdin lines, one object per line")
    mp.add_argument("--bijection", required=True, choices=list(bijections.BIJECTIONS))
    mp.add_argument("--inverse", action="store_true")
    traced = ", ".join(name for name, b in bijections.BIJECTIONS.items() if b.trace)
    mp.add_argument("--trace", action="store_true",
                    help=f"with --bijection {traced}: print intermediate forms to stderr")

    ver = sub.add_parser("verify", help="run every documented invariant up to a bound")
    ver.add_argument("--n-max", required=True, type=int, dest="n_max")

    spr = sub.add_parser("springer", help="print the Springer numbers S_0..S_n, one per line")
    spr.add_argument("--n-max", required=True, type=int, dest="n_max")

    return parser


def _cmd_count(args, out: TextIO) -> int:
    fam = families.FAMILIES[args.family]
    if args.method == "enumerate":
        value = sum(1 for _ in fam.generate(args.n))
    else:
        value = fam.oracle(args.n)
    out.write(f"{value}\n")
    return 0


def _cmd_enumerate(args, out: TextIO) -> int:
    fam = families.FAMILIES[args.family]
    for obj in fam.enumerate(args.n):
        out.write(fam.render(obj) + "\n")
    return 0


def _cmd_map(args, stdin: TextIO, out: TextIO, err: TextIO) -> int:
    bij = bijections.BIJECTIONS[args.bijection]
    if args.inverse:
        source, target, apply, trace = bij.codomain, bij.domain, bij.inverse, bij.inverse_trace
    else:
        source, target, apply, trace = bij.domain, bij.codomain, bij.forward, bij.trace
    source, target = families.domain(source), families.domain(target)
    status = 0
    for lineno, raw in enumerate(stdin, start=1):
        line = raw.rstrip("\n")
        try:
            obj = source.parse(line)
            if source.render(obj) != line:
                raise NotCanonical(f"{line!r} is not canonical text")
            if args.trace and trace:
                for label, text in trace(obj):
                    err.write(f"trace {lineno} {label}: {text}\n")
            result = apply(obj)
        except (ValueError, AssertionError) as exc:
            reason = str(exc) or type(exc).__name__
            err.write(f"ERROR {lineno}: {type(exc).__name__}: {reason}\n")
            status = 1
            continue
        out.write(target.render(result) + "\n")
    return status


def _cmd_verify(args, out: TextIO) -> int:
    results = verify.run(args.n_max)
    width = max(len(r.name) for r in results)
    bound_width = max(len(str(r.bound)) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        row = f"{r.name:<{width}}  n<={r.bound:<{bound_width}}  {status}  {r.elapsed:8.3f}s"
        if r.detail:
            row += f"  {r.detail}"
        out.write(row + "\n")
    failed = sum(1 for r in results if not r.passed)
    out.write(f"{len(results) - failed}/{len(results)} properties passed\n")
    return 0 if failed == 0 else 1


def _cmd_springer(args, out: TextIO) -> int:
    table = families.springer_egf(args.n_max)
    check = families.springer_dp(min(args.n_max, 12))
    assert table.values[: len(check.values)] == check.values
    for value in table.values:
        out.write(f"{value}\n")
    return 0


def main(argv=None, stdin: TextIO | None = None,
         stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code is not None else 0

    if args.command in ("count", "enumerate") and args.n < 0:
        stderr.write("n must be >= 0\n")
        return 2
    if args.command in ("verify", "springer") and args.n_max < 0:
        stderr.write("n-max must be >= 0\n")
        return 2

    if args.command == "count":
        return _cmd_count(args, stdout)
    if args.command == "enumerate":
        return _cmd_enumerate(args, stdout)
    if args.command == "map":
        return _cmd_map(args, stdin, stdout, stderr)
    if args.command == "verify":
        return _cmd_verify(args, stdout)
    return _cmd_springer(args, stdout)


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()

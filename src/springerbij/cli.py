"""Command-line interface: count, enumerate, map, verify, springer.

Exit codes: 0 success, 1 data errors encountered while mapping or a failed
verification, 2 usage errors. stdout carries results only; diagnostics and
trace lines go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TextIO

from . import bijections, families, paths, verify
from .errors import LineTooLong, NotCanonical

MAP_LINE_MAX = 2**20  # characters in a map line, its newline not counted; longer lines are refused


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
    out.writelines(families.FAMILIES[args.family].text(args.n))
    return 0


def _cmd_map(args, stdin: TextIO, out: TextIO, err: TextIO) -> int:
    bij = bijections.BIJECTIONS[args.bijection]
    if args.inverse:
        source, target, apply = bij.codomain, bij.domain, bij.inverse
    else:
        source, target, apply = bij.domain, bij.codomain, bij.forward
    source, target = families.domain(source), families.domain(target)
    status, lineno = 0, 0
    while raw := stdin.readline(MAP_LINE_MAX + 1):
        lineno += 1
        try:
            if len(raw) > MAP_LINE_MAX and raw[-1] != "\n":
                while stdin.readline(MAP_LINE_MAX + 1)[-1:] not in ("\n", ""):
                    pass  # drop the rest of the line, read in pieces of the same size
                raise LineTooLong(f"line longer than {MAP_LINE_MAX} characters")
            line = raw.rstrip("\n")
            try:  # read checks nothing: the map's input check, as strict as the parse, is the one check
                obj = source.read(line)
                if source.render(obj) != line:
                    raise NotCanonical(f"{line!r} is not canonical text")
                result = apply(obj)
            except ValueError:  # the parse's error, if it has one, else NotCanonical or the map's
                source.parse(line)
                raise
            if args.trace and bij.trace:  # an inverse line is traced through its image
                for label, text in bij.trace(result if args.inverse else obj):
                    err.write(f"trace {lineno} {label}: {text}\n")
        except ValueError as exc:
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
    values = families.springer_egf(args.n_max)
    if values != paths.lbp_dp_counts(args.n_max):  # the DP checks every value printed
        raise RuntimeError("the EGF and the DP give different Springer numbers")
    for value in values:
        out.write(f"{value}\n")
    return 0


ORACLE_N_MAX = 1000  # the largest n of count --method oracle (about 0.5 s) and springer (EGF and DP, 1 s)


def _usage_error(args) -> str:
    """Why the arguments ask for too much or make no sense, or "" to run them."""
    if args.command == "map":
        return ""
    name, n = ("n", args.n) if args.command in ("count", "enumerate") else ("n-max", args.n_max)
    if n < 0:
        return f"{name} must be >= 0"
    if args.command == "enumerate" or args.command == "count" and args.method == "enumerate":
        ceiling = families.FAMILIES[args.family].ceiling
        if n > ceiling:
            return f"n must be <= {ceiling} to enumerate {args.family} (at most 10^9 objects)"
    elif args.command != "verify" and n > ORACLE_N_MAX:
        return f"{name} must be <= {ORACLE_N_MAX}"
    return ""


_parser = functools.cache(build_parser)  # one parser per process, built by the first main call


def main(argv=None, stdin: TextIO | None = None,
         stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr

    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code is not None else 0

    error = _usage_error(args)
    if error:
        stderr.write(error + "\n")
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

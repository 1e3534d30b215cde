"""Time `springerbij enumerate` per family for two source trees, in one process.

    python3 tools/family_times.py BEFORE_SRC AFTER_SRC [--rounds 7] [--out OUT]

Each SRC is a directory that holds the `springerbij` package (a checkout's
`src/`). Both trees are imported into this interpreter, one after the other,
each under its own copy of the package's modules. Then every round times,
for each family of the benchmark's enumerate workload, one
`cli.main(["enumerate", "--family", F, "--n", N])` of each tree, writing to
the null device, with the two trees' order alternating from round to round.
The times are perf_counter seconds.

The output is one JSON object: per "family@n", the best and the median
seconds of each tree, each tree's tracemalloc peak of one call in MiB (the
memory the call allocates beyond what the process held before it, measured
in an untimed call of its own), and the method. Each tree's output is checked
against the other's by its SHA-256 before timing; a difference exits with
status 1.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib
import io
import json
import os
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def workload() -> dict[str, int]:
    """The enumerate workload of perfbench/run.py, family -> n: ENUMERATE_CALLS["full"], read, not imported."""
    with open(os.path.join(ROOT, "perfbench", "run.py")) as f:
        tree = ast.parse(f.read())
    calls = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ENUMERATE_CALLS"])
    return {family: n for family, n, _, _ in calls["full"]}


def load(src: str):
    """The cli module of the springerbij package under src, imported afresh."""
    for name in [m for m in sys.modules if m == "springerbij" or m.startswith("springerbij.")]:
        del sys.modules[name]
    sys.path.insert(0, os.path.abspath(src))
    try:
        return importlib.import_module("springerbij.cli")
    finally:
        del sys.path[0]


def digest(cli, family: str, n: int) -> str:
    out = io.StringIO()
    code = cli.main(["enumerate", "--family", family, "--n", str(n)], stdout=out, stderr=io.StringIO())
    if code:
        raise SystemExit(f"enumerate --family {family} --n {n} exited {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def time_once(cli, family: str, n: int, sink) -> float:
    start = time.perf_counter()
    cli.main(["enumerate", "--family", family, "--n", str(n)], stdout=sink, stderr=sink)
    elapsed = time.perf_counter() - start
    sink.flush()
    return elapsed


def peak_once(cli, family: str, n: int, sink) -> int:
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        cli.main(["enumerate", "--family", family, "--n", str(n)], stdout=sink, stderr=sink)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", help="the src/ directory of the first tree")
    parser.add_argument("after", help="the src/ directory of the second tree")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    trees = {"before": load(args.before), "after": load(args.after)}
    calls = workload()
    for family, n in calls.items():
        sums = {side: digest(cli, family, n) for side, cli in trees.items()}
        if len(set(sums.values())) != 1:
            print(f"{family}@{n}: the two trees write different text {sums}", file=sys.stderr)
            return 1
    times = {(side, family): [] for side in trees for family in calls}
    with open(os.devnull, "w") as sink:
        peaks = {(side, family): peak_once(cli, family, n, sink)
                 for family, n in calls.items() for side, cli in trees.items()}
        for round_no in range(args.rounds):
            order = list(trees) if round_no % 2 == 0 else list(reversed(trees))
            for family, n in calls.items():
                for side in order:
                    times[side, family].append(time_once(trees[side], family, n, sink))
    report = {"method": f"in process: cli.main(['enumerate', ...]) into the null device, the two trees "
                        f"alternated, {args.rounds} rounds, seconds of perf_counter, best and median; "
                        f"the tracemalloc peak of one more call per tree, in MiB"}
    for family, n in calls.items():
        row = {}
        for side in trees:
            row[f"{side}_best_s"] = round(min(times[side, family]), 4)
            row[f"{side}_median_s"] = round(statistics.median(times[side, family]), 4)
            row[f"{side}_peak_mib"] = round(peaks[side, family] / 2**20, 3)
        report[f"{family}@{n}"] = row
    for side in trees:
        report[f"total_best_{side}_s"] = round(sum(min(times[side, f]) for f in calls), 4)
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A/B timing of two source trees of springerbij: import, verify, enumerate or map.

    python3 tools/ab_times.py {import,verify,enumerate,map} BEFORE_SRC AFTER_SRC
                              [--samples N] [--n-max 8] [--n 8] [--mutants] [--out FILE]

Each SRC holds the `springerbij` package (a checkout's `src/`). Every child is
a fresh `python -E -s -c CODE ARG` interpreter run in SRC, which `-c` puts
first on sys.path, and only one child runs at a time. An untimed `import
springerbij.cli` per tree writes its bytecode cache. Then each sample runs the
measure's timed child once per tree, the first tree first in even samples. A
timed child prints its total perf_counter seconds, its parts' seconds, its
`ru_maxrss` and a check; if a check differs between the trees, the tool names
it and exits with status 1. Last, one detail child per tree runs. MEASURES
holds each measure's children and says what they do.

The output is one JSON object: per tree, the min, inclusive quartiles and
median of the total and of each part, the median `ru_maxrss` in MiB, the
check and the detail; then the ratio of the median totals (after / before),
the samples in which the second tree was faster, and the method.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys

# every timed child sets total, parts and check; this tail prints them
REPORT = """
import json, resource
print(json.dumps({"total_s": total, "part_s": parts, "check": check,
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

IMPORT = """
import time
start = time.perf_counter()
import springerbij.cli
total, parts, check = time.perf_counter() - start, {}, {}
""" + REPORT

SELF_US = """
import json, subprocess, sys
err = subprocess.run([sys.executable, "-E", "-s", "-X", "importtime", "-c", "import springerbij.cli"],
                     capture_output=True, text=True, check=True).stderr
rows = [line.removeprefix("import time:").split("|") for line in err.splitlines()]
print(json.dumps({"self_us": {row[2].strip(): int(row[0]) for row in rows
                              if len(row) == 3 and row[2].strip().startswith("springerbij")}}))
"""

VERIFY = """
import sys, time
from springerbij import verify
start = time.perf_counter()
rows = verify.run(int(sys.argv[1]))
total = time.perf_counter() - start
parts, check = {row.name: row.elapsed for row in rows}, {"passed": sum(row.passed for row in rows)}
""" + REPORT

# a peak is the most memory held at once beyond what the child held before the call
TRACE = """
import contextlib, json, tracemalloc
def peak_mib(call, *args):
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    with contextlib.suppress(Exception):  # a failed verify row has a peak too; the timed runs count passes
        call(*args)
    return round((tracemalloc.get_traced_memory()[1] - held) / 2**20, 3)
tracemalloc.start()
"""

VERIFY_PEAKS = """
import sys
from springerbij import verify
n_max = int(sys.argv[1])
""" + TRACE + """
print(json.dumps({"peak_mib": {name: peak_mib(check, min(cap, n_max))
                               for name, cap, check in sorted(verify.PROPERTIES)}}))
"""

CALLS = """
import hashlib, json, os, sys, time
from springerbij import cli
calls = [(f"{family}@{n}", family, n) for family, n in json.loads(sys.argv[1])]
class Digest:  # the text of one enumerate, hashed piece by piece
    def __init__(self):
        self.sha = hashlib.sha256()
    def writelines(self, lines):
        for text in lines:
            self.sha.update(text.encode())
def run(family, n, out):
    if cli.main(["enumerate", "--family", family, "--n", str(n)], stdout=out, stderr=sys.stderr):
        sys.exit(f"enumerate --family {family} --n {n} failed")
    return out
sink = open(os.devnull, "w")
"""

# a part is the median of TIMES timed calls, the total the sum of the parts
MEDIANS = """
import statistics, time
TIMES = 5
def median_s(call, *args):
    times = []
    for _ in range(TIMES):
        start = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
"""

ENUMERATE = CALLS + MEDIANS + """
check = {name: run(family, n, Digest()).sha.hexdigest() for name, family, n in calls}
parts = {name: median_s(lambda: run(family, n, sink).flush()) for name, family, n in calls}
total = sum(parts.values())
""" + REPORT

# a piece is one string the enumerate text hands out, one a search leaf
ENUMERATE_PEAKS = CALLS + """
class Pieces:
    def __init__(self):
        self.count = 0
    def writelines(self, lines):
        self.count += sum(1 for _ in lines)
warm = [run(family, n, sink) for _, family, n in calls]
pieces = {name: run(family, n, Pieces()).count for name, family, n in calls}
""" + TRACE + """
print(json.dumps({"peak_mib": {name: peak_mib(run, family, n, sink) for name, family, n in calls},
                  "pieces": pieces}))
"""

# the chain of the map workloads on one input set, seeded by n: perfbench's
# own sampler draws it in the child, untimed, and a first run of the chain,
# also untimed, gives each mode's input. With mutants, each input line is
# followed by two mutants, as in tests/test_map_golden.py: one with a
# character replaced by another of the line, one with two entries (two letters
# of a step word) swapped. One more untimed run of each mode's input gives the
# SHA-256 of all outputs and the count of rejected lines
CHAIN = """
import hashlib, io, json, random, sys
from springerbij import cli
n, lines, chain, perfbench, mutants = json.loads(sys.argv[1])
sys.path.append(perfbench)
import sampling
rng = random.Random(n)
rows = sampling.lbp_completions(n)
sets = {"L": [sampling.sample_lbp(n, rng, rows) for _ in range(lines)],
        "P": [sampling.sample_perm(n, rng) for _ in range(lines)]}
def run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    cli.main(argv, stdin=io.StringIO(text), stdout=out, stderr=err)
    return out.getvalue(), err.getvalue()
def with_mutants(line):
    pos = rng.randrange(len(line))
    word, sep, weights = line.partition(";")
    items = list(word) if sep else line.split(" ")
    i, j = rng.randrange(len(items)), rng.randrange(len(items))
    items[i], items[j] = items[j], items[i]
    return [line, line[:pos] + rng.choice(line) + line[pos + 1:],
            "".join(items) + sep + weights if sep else " ".join(items)]
modes = []
for bijection, inverse, source, target in chain:
    argv = ["map", "--bijection", bijection] + ["--inverse"] * inverse
    out, _ = run(argv, "".join(line + "\\n" for line in sets[source]))
    sets.setdefault(target, out.splitlines())
    text = "".join(m + "\\n" for line in sets[source] for m in (with_mutants(line) if mutants else [line]))
    modes.append((" ".join(argv[2:]), argv, text))
outputs = [run(argv, text) for _, argv, text in modes]
digest = hashlib.sha256("".join(out + err for out, err in outputs).encode())
rejected = sum(err.count("ERROR") for _, err in outputs), sum(text.count("\\n") for *_, text in modes)
"""

MAP = CHAIN + MEDIANS + """
check = {"sha256": digest.hexdigest(), "rejected_lines": "%d of %d" % rejected}
parts = {name: median_s(run, argv, text) for name, argv, text in modes}
total = sum(parts.values())
""" + REPORT

MAP_PEAKS = CHAIN + TRACE + """
print(json.dumps({"peak_mib": {name: peak_mib(run, argv, text) for name, argv, text in modes}}))
"""

MUTANTS = (", each line followed by two mutants (one character replaced by another of the line; two "
           "entries or step letters swapped)")

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def literal(file: str, name: str):
    """The value of the top-level assignment `name = ...` in perfbench/file, read, not imported."""
    with open(os.path.join(PERFBENCH, file)) as f:
        tree = ast.parse(f.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name])


def workload() -> list[list]:
    """The enumerate workload of perfbench/run.py, [family, n] per call: ENUMERATE_CALLS["full"]."""
    return [[family, n] for family, n, _, _ in literal("run.py", "ENUMERATE_CALLS")["full"]]


def map_lines() -> dict[int, int]:
    """n -> lines per input set of the map workloads of perfbench/run.py: MAP_SIZES, full scale."""
    return {n: lines for n, lines, _ in (sizes["full"] for sizes in literal("run.py", "MAP_SIZES").values())}


def map_job(n: int, mutants: bool) -> list:
    """[n, lines, chain, perfbench, mutants]: one input set of the map workload at n, MAP_CHAIN of
    perfbench/child.py, and whether two mutants follow each line."""
    return [n, map_lines()[n], literal("child.py", "MAP_CHAIN"), PERFBENCH, mutants]


# measure -> (timed child, detail child, default samples, the child's argument, what the method runs)
MEASURES = {
    "import": (IMPORT, SELF_US, 40, lambda args: "", "each timing `import springerbij.cli`; "
               "self microseconds from one more `-X importtime` import per tree"),
    "verify": (VERIFY, VERIFY_PEAKS, 5, lambda args: str(args.n_max), "each timing verify.run({arg}) and "
               "its rows as run times them; tracemalloc peaks from one more child per tree, each row run alone"),
    "enumerate": (ENUMERATE, ENUMERATE_PEAKS, 7, lambda args: json.dumps(workload()),
                  "each running every call of {arg} once untimed (its SHA-256; warm caches), then timing "
                  "five more cli.main(['enumerate', ...]) per call into the null device, the call's part "
                  "the median of its five and the total the sum of the parts; tracemalloc peaks and each call's "
                  "pieces (one a search leaf) from one more child per tree, after one warm call of each"),
    "map": (MAP, MAP_PEAKS, 7, lambda args: json.dumps(map_job(args.n, args.mutants)),
            "each drawing one seeded input set of the map workload at n = {args.n} (perfbench's sampler) and "
            "running perfbench's 12-mode MAP_CHAIN on it once untimed, which gives each mode's input"
            "{mutants}, then once more (the SHA-256 of all outputs and the rejected lines), then "
            "timing five more cli.main(['map', ...]) per mode on that mode's input, the mode's part the "
            "median of its five and the total the sum of the parts; tracemalloc peaks from one more child "
            "per tree, after the untimed chain"),
}


def child(code: str, src: str, arg: str) -> dict:
    """One fresh interpreter that runs code with src first on sys.path; waits for it to exit."""
    done = subprocess.run([sys.executable, "-E", "-s", "-c", code, arg], cwd=src,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summary(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"min_s": round(min(samples), 6), "q1_s": round(q1, 6),
            "median_s": round(median, 6), "q3_s": round(q3, 6)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("measure", choices=MEASURES)
    parser.add_argument("before", help="the src/ directory of the first tree")
    parser.add_argument("after", help="the src/ directory of the second tree")
    parser.add_argument("--samples", type=int,
                        help="timed children per tree, at least 2 (default: 40 import, 5 verify, 7 enumerate and map)")
    parser.add_argument("--n-max", type=int, default=8, help="the bound that verify.run takes")
    parser.add_argument("--n", type=int, default=8, choices=sorted(map_lines()),
                        help="the size of the map measure's objects, as in map-small or map-large")
    parser.add_argument("--mutants", action="store_true",
                        help="put two mutants, most of them rejected, after each line of the map inputs")
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    timed, detail, samples, arg, what = MEASURES[args.measure]
    samples = samples if args.samples is None else args.samples
    if samples < 2:
        parser.error("--samples must be at least 2 (quartiles need two runs)")
    trees, arg = {"before": args.before, "after": args.after}, arg(args)
    for src in trees.values():
        child(IMPORT, src, "")
    runs = {side: [] for side in trees}
    for sample in range(samples):
        for side in (trees if sample % 2 == 0 else reversed(trees)):
            runs[side].append(child(timed, trees[side], arg))
        checks = {side: runs[side][-1]["check"] for side in trees}
        if differ := sorted({key for key, _ in checks["before"].items() ^ checks["after"].items()}):
            print("the trees differ in", {key: {side: checks[side].get(key) for side in trees} for key in differ},
                  file=sys.stderr)
            return 1
    report = {side: {"total": summary([run["total_s"] for run in runs[side]]),
                     "parts": {name: summary([run["part_s"][name] for run in runs[side]])
                               for name in runs[side][0]["part_s"]},
                     "maxrss_mib": round(statistics.median(run["maxrss_kib"] for run in runs[side]) / 1024, 2),
                     "check": runs[side][0]["check"], **child(detail, src, arg)}
              for side, src in trees.items()}
    report["ratio_of_medians"] = round(report["after"]["total"]["median_s"] / report["before"]["total"]["median_s"], 4)
    faster = sum(after["total_s"] < before["total_s"] for after, before in zip(runs["after"], runs["before"]))
    report["after_faster_in"] = f"{faster} of {samples}"
    what = what.format(arg=arg, args=args, mutants=MUTANTS * args.mutants)
    report["method"] = (f"{samples} fresh `{os.path.basename(sys.executable)} -E -s` interpreters per tree, one at "
                        f"a time, the trees alternated, {what}; seconds of perf_counter, "
                        f"inclusive quartiles; ru_maxrss at the child's end")
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

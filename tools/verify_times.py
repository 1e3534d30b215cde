"""Time and measure `verify` row by row for two source trees.

    python3 tools/verify_times.py BEFORE_SRC AFTER_SRC [--n-max 8] [--samples 5] [--out OUT]

Each SRC is a directory that holds the `springerbij` package (a checkout's
`src/`). Every sample starts one fresh `python -E -s` interpreter, which puts
SRC first on sys.path, imports `springerbij.verify` and times
`verify.run(n_max)` with perf_counter; each row's seconds are the elapsed
time that run reports for it, and the child's `ru_maxrss` is read after the
run. The two trees alternate from sample to sample, the first tree first in
even samples, and only one child runs at a time. One untimed run at n_max 0
per tree first writes its bytecode cache. Then one more child per tree runs
every row alone under tracemalloc, the rows in the order that `run` takes
them and each capped as `run` caps it, and reports each row's peak: the
most memory the row held at once beyond what the process held before it.

The output is one JSON object: per tree, the median and the quartiles of
the total seconds and of each row's seconds, the median `ru_maxrss` in MiB,
the fewest rows that passed in any child, and each row's tracemalloc peak in
MiB; then the ratio of the median totals (after / before), the samples in
which the second tree was faster, and the method.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from springerbij import verify
start = time.perf_counter()
rows = verify.run(int(sys.argv[2]))
total = time.perf_counter() - start
print(json.dumps({"total_s": total, "row_s": {r.name: r.elapsed for r in rows},
                  "passed": sum(r.passed for r in rows),
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

PEAKS = """
import json, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from springerbij import verify
n_max, peaks, passed = int(sys.argv[2]), {}, 0
tracemalloc.start()
for name, cap, check in sorted(verify.PROPERTIES):
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        check(min(cap, n_max))
        passed += 1
    except Exception:
        pass
    peaks[name] = (tracemalloc.get_traced_memory()[1] - held) / 2**20
print(json.dumps({"peak_mib": peaks, "passed": passed}))
"""


def child(code: str, src: str, n_max: int) -> dict:
    """One fresh interpreter that runs code on the package under src; waits for it to exit."""
    done = subprocess.run([sys.executable, "-E", "-s", "-c", code, os.path.abspath(src), str(n_max)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summary(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": round(median, 6), "q1_s": round(q1, 6), "q3_s": round(q3, 6)}


def report(runs: list[dict], peaks: dict) -> dict:
    """One tree's summary of its timed runs and its tracemalloc run."""
    return {"total": summary([run["total_s"] for run in runs]),
            "rows": {name: summary([run["row_s"][name] for run in runs]) for name in runs[0]["row_s"]},
            "maxrss_mib": round(statistics.median(run["maxrss_kib"] for run in runs) / 1024, 2),
            "passed": min(run["passed"] for run in [*runs, peaks]),
            "peak_mib": {name: round(peak, 3) for name, peak in peaks["peak_mib"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", help="the src/ directory of the first tree")
    parser.add_argument("after", help="the src/ directory of the second tree")
    parser.add_argument("--n-max", type=int, default=8, help="the bound that each run passes to verify.run")
    parser.add_argument("--samples", type=int, default=5, help="timed runs per tree, at least 2")
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    if args.samples < 2:
        parser.error("--samples must be at least 2 (quartiles need two runs)")
    trees = {"before": args.before, "after": args.after}
    for src in trees.values():
        child(RUN, src, 0)
    runs = {side: [] for side in trees}
    for sample in range(args.samples):
        for side in (trees if sample % 2 == 0 else reversed(trees)):
            runs[side].append(child(RUN, trees[side], args.n_max))
    result = {side: report(runs[side], child(PEAKS, src, args.n_max)) for side, src in trees.items()}
    totals = {side: [run["total_s"] for run in runs[side]] for side in trees}
    result["ratio_of_medians"] = round(
        result["after"]["total"]["median_s"] / result["before"]["total"]["median_s"], 4)
    result["after_faster_in"] = f"{sum(map(float.__lt__, totals['after'], totals['before']))} of {args.samples}"
    result["method"] = (f"{args.samples} fresh `{os.path.basename(sys.executable)} -E -s` interpreters "
                        f"per tree, alternated, each timing verify.run({args.n_max}) with perf_counter; "
                        f"inclusive quartiles; ru_maxrss after the run; tracemalloc peaks from one more "
                        f"child per tree that runs each row alone")
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time a fresh `import springerbij.cli` for two source trees.

    python3 tools/import_times.py BEFORE_SRC AFTER_SRC [--samples 40] [--out OUT]

Each SRC is a directory that holds the `springerbij` package (a checkout's
`src/`). Every sample starts one fresh `python -E -s` interpreter, which puts
SRC first on sys.path and times `import springerbij.cli` with perf_counter;
this is the import that the benchmark's setup_s times. The two trees
alternate from sample to sample, the first tree first in even samples, and
only one child runs at a time. One untimed import per tree first writes its
bytecode cache. Then one more child per tree runs the same import under
`-X importtime`, which gives the self time of each `springerbij.*` module.

The output is one JSON object: per tree, the median and the quartiles of
the import seconds, and the self microseconds of each `springerbij.*`
module, in import order; then the ratio of the medians (after / before),
the samples in which the second tree was faster, and the method.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import springerbij.cli
print(time.perf_counter() - start)
"""


def child(src: str, *options: str) -> subprocess.CompletedProcess:
    """One fresh interpreter that imports springerbij.cli from src; waits for it to exit."""
    return subprocess.run([sys.executable, "-E", "-s", *options, "-c", IMPORT, os.path.abspath(src)],
                          capture_output=True, text=True, check=True)


def import_seconds(src: str) -> float:
    return float(child(src).stdout)


def self_times(src: str) -> dict[str, int]:
    """Self microseconds of each springerbij.* module, from one `-X importtime` import."""
    times = {}
    for line in child(src, "-X", "importtime").stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip().startswith("springerbij"):
            times[fields[2].strip()] = int(fields[0])
    return times


def summary(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": round(median, 5), "q1_s": round(q1, 5), "q3_s": round(q3, 5)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", help="the src/ directory of the first tree")
    parser.add_argument("after", help="the src/ directory of the second tree")
    parser.add_argument("--samples", type=int, default=40, help="timed imports per tree")
    parser.add_argument("--out", help="also write the JSON to this file")
    args = parser.parse_args(argv)
    trees = {"before": args.before, "after": args.after}
    for src in trees.values():
        import_seconds(src)
    times = {side: [] for side in trees}
    for sample in range(args.samples):
        for side in (trees if sample % 2 == 0 else reversed(trees)):
            times[side].append(import_seconds(trees[side]))
    report = {side: {**summary(times[side]), "self_us": self_times(src)} for side, src in trees.items()}
    report["ratio_of_medians"] = round(report["after"]["median_s"] / report["before"]["median_s"], 4)
    report["after_faster_in"] = f"{sum(map(float.__lt__, times['after'], times['before']))} of {args.samples}"
    report["method"] = (f"{args.samples} fresh `{os.path.basename(sys.executable)} -E -s` interpreters "
                        f"per tree, alternated, each timing `import springerbij.cli` with perf_counter; "
                        f"inclusive quartiles; self times from one `-X importtime` import per tree")
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

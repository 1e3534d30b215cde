"""Benchmark of the springerbij CLI: four closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload {verify,enumerate,map-small,map-large}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ./src in fresh
interpreters, one at a time, so at most two processes (this one and a
child) are alive. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it repeat the
metrics for people, with the Python version, the commit and the workload's
reason. A fuller record of each run, spans included, goes to perfbench/out/.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median
import time of springerbij.cli over several fresh interpreters, and, from
one child that repeats the workload for --seconds, the median pass time,
the throughput and the child's peak RSS. These times are scaled to a
reference speed of the machine (refclock.py); the raw medians are printed
beside them. --trace 1 runs one untraced and one traced pass in two
children and reports the per-layer metrics from the traced one, plus the
tracing overhead, with times scaled the same way.

The exit status is 0 when every output checked out, 1 when a correctness
gate failed or a child crashed, and 2 when the checkout holds no program
to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sampling

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEADLINE_S = 170  # a run must end within 180 s

SETUP_SAMPLES = 21
# times the import, then the reference task right after it (importing
# refclock first would preload modules the import needs)
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import springerbij.cli
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import refclock
clock = refclock.RefClock()
for _ in range(5):
    clock.sample()
print(elapsed, elapsed * clock.scale_since(0))
"""

# (family, n, objects, SHA-256 of the output); the digests are of the
# canonical output at the commit that introduced this benchmark
ENUMERATE_CALLS = {
    "full": [
        ("snakes", 8, 250737, "e1a0d95489a869df15a3a1662a141b61329d3531fb43e7cf0cb6a8d67128afd1"),
        ("wip3", 7, 24611, "ed2825bd8bae112c8c258595ad80367ceabd3fcd1de6a45d8d6674ca454f9076"),
        ("rcalt", 8, 250737, "2228f8585421bee2139b643f88c3c305214de87019df97b224051a29fc409915"),
        ("lbp", 8, 250737, "8ec6aabc0ca8dc591565dd7ec8a71cdea4c9e2f2b0186992ab0c098847233bce"),
        ("laguerre", 8, 40320, "423077d20c0a4c48975f808cde1fb80a0635f7a6b1e2c8b2fb0b3ab752dcb545"),
        ("altperm", 11, 353792, "fa730e0fec03e28da55dba8b6bb7671d9038d5633960a2af9f2647eb0e25bf09"),
    ],
    "smoke": [
        ("snakes", 4, 57, "d1a2932a8c10e3ae7fee31878326e61e9af1a0a3752f7d3dd316024d93aafa38"),
        ("wip3", 4, 57, "970d31a93ccf2043905d6cd5f01801de7545a98686b064ddbbcf0c76810a8e60"),
        ("rcalt", 4, 57, "3418468019a0040f1dd5f30765843955f5f5ff8379ae1c834f12eb4685950944"),
        ("lbp", 4, 57, "532494105d2401333d8a9437579b34d19c0ba577f9abd69e3e53f369b6ea90b3"),
        ("laguerre", 4, 24, "6fbe452014588da51b094ec56a2e3bf174312cdd2a36d970d40323b89a7d5caa"),
        ("altperm", 5, 16, "52025c48b3ed14f17c122b5f93456135a70c026467911626871e84b966d2c1e4"),
    ],
}
VERIFY_N_MAX = {"full": 8, "smoke": 3}
# workload -> scale -> (n, lines per input set, input sets); pass j maps set j mod sets
MAP_SIZES = {
    "map-small": {"full": (8, 200, 16), "smoke": (4, 5, 2)},
    "map-large": {"full": (512, 8, 32), "smoke": (16, 2, 2)},
}
# workload -> (what items_per_s counts, the issue's name for pass_s or items_per_s)
ISSUE_NAMES = {"verify": ("rows", "pass_s = verify_s"),
               "enumerate": ("objects", "items_per_s = enumerate_objects_per_s"),
               "map-small": ("lines", "items_per_s = map_lines_per_s"),
               "map-large": ("lines", "items_per_s = map_lines_per_s")}


def make_job(workload: str, seed: int, scale: str) -> dict:
    """Everything the child needs: the input lines and the expected results."""
    rng = random.Random(seed)
    job = {"workload": workload, "src": str(SRC), "out_dir": str(OUT)}
    if workload == "verify":  # no inputs: the seed changes nothing
        job["n_max"] = VERIFY_N_MAX[scale]
    elif workload == "enumerate":  # the seed only orders the six calls
        calls = list(ENUMERATE_CALLS[scale])
        rng.shuffle(calls)
        job["calls"] = calls
    else:
        n, per_set, sets = MAP_SIZES[workload][scale]
        rows = sampling.lbp_completions(n)
        job["sets"] = [
            {"L": [sampling.sample_lbp(n, rng, rows) for _ in range(per_set)],
             "P": [sampling.sample_perm(n, rng) for _ in range(per_set)]}
            for _ in range(sets)
        ]
    return job


def run_child(job: dict, *, trace: bool, max_passes: int, seconds: float, deadline: float) -> dict:
    job = dict(job, trace=trace, seconds=seconds, max_passes=max_passes)
    proc = subprocess.run(
        [sys.executable, "-E", "-s", str(HERE / "child.py")],
        input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload child exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def import_seconds(deadline: float) -> tuple[float, float]:
    """(raw, scaled) seconds of `import springerbij.cli` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", SETUP_CODE, str(SRC), str(HERE)],
        capture_output=True, text=True, cwd=ROOT, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    raw, scaled = map(float, proc.stdout.split())
    return raw, scaled


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def tail_note(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples above it, if any."""
    if len(values) < 20:
        return ""
    q = int(100 * (1 - 10 / len(values)))
    return f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ISSUE_NAMES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the harness itself (perfbench/smoke.py)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "springerbij" / "cli.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"no program to benchmark: need {SRC / 'springerbij'} and {spec_path}\n")
        return 2
    spec = json.loads(spec_path.read_text())
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    scale = "smoke" if args.smoke else "full"
    job = make_job(args.workload, args.seed, scale)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": scale, "python": platform.python_version(), "commit": commit(),
        "source_sha256": source_digest(),
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
    }
    if args.trace == 0:
        import_seconds(deadline)  # the first import may compile bytecode; users pay that once
        setups = [import_seconds(deadline) for _ in range(SETUP_SAMPLES)]
        res = run_child(job, trace=False, max_passes=10**9, seconds=args.seconds, deadline=deadline)
        pass_s = statistics.median(res["scaled_pass_s"])
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "pass_s": pass_s,
            "items_per_s": res["items_per_pass"] / pass_s,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        raw = {"setup_s": statistics.median(r for r, _ in setups), "pass_s": statistics.median(res["pass_s"])}
        record.update(setup_samples_raw_scaled=setups, pass_samples_raw=res["pass_s"],
                      pass_samples_scaled=res["scaled_pass_s"], items_per_pass=res["items_per_pass"],
                      reference_samples=res["reference_samples"],
                      reference_median_s=res["reference_median_s"], raw_medians=raw)
        listed = spec["end_to_end"]
        attempted, failed = res["attempted"], res["failed"]
    else:
        base = run_child(job, trace=False, max_passes=1, seconds=args.seconds, deadline=deadline)
        traced = run_child(job, trace=True, max_passes=1, seconds=args.seconds, deadline=deadline)
        values = dict(traced["layers"])
        values["tracing_overhead_s"] = traced["scaled_pass_s"][0] - base["scaled_pass_s"][0]
        record.update(untraced_pass_s_raw_scaled=[base["pass_s"][0], base["scaled_pass_s"][0]],
                      traced_pass_s_raw_scaled=[traced["pass_s"][0], traced["scaled_pass_s"][0]],
                      spans_parent_name_calls_total_self_raw=traced["spans"])
        listed = spec["per_layer"]
        attempted = base["attempted"] + traced["attempted"]
        failed = base["failed"] + traced["failed"]

    units = {m["name"]: m["unit"] for m in listed}
    if set(values) != set(units):
        sys.stderr.write(f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
                         f"unlisted {sorted(set(values) - set(units))}\n")
        return 2
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# workload {args.workload} ({scale}), seed {args.seed}, trace {args.trace}: {record['why']}")
    print(f"# python {record['python']}, commit {record['commit']}, src sha256 {record['source_sha256'][:16]}")
    if args.trace == 0:
        item, alias = ISSUE_NAMES[args.workload]
        samples = res["scaled_pass_s"]
        print(f"# times are scaled to the reference speed; raw medians: setup {raw['setup_s']:.6g} s, "
              f"pass {raw['pass_s']:.6g} s; reference task median {res['reference_median_s'] * 1e6:.1f} us")
        print(f"setup_s      {values['setup_s']:.6g} s  (median of {len(setups)} fresh imports)")
        print(f"pass_s       {pass_s:.6g} s  (median of {len(samples)} passes{tail_note(samples)})")
        print(f"items_per_s  {values['items_per_s']:.6g} {item}/s  ({res['items_per_pass']} {item} per pass)")
        print(f"peak_rss_mb  {values['peak_rss_mb']:.6g} MiB  (of the workload's child)")
        print(f"# {alias}")
    else:
        for name, metric in metrics.items():
            print(f"{name}  {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ratio {failed / max(attempted, 1):.6g}  ({failed} of {attempted} operations failed)")
    print(f"# full record: {out_file.relative_to(ROOT)}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

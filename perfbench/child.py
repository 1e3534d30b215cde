"""One workload run in a fresh interpreter; started by run.py, never by hand.

Reads a job (JSON) on stdin, imports the program from the job's source
directory, runs closed-loop passes of the workload through
`springerbij.cli.main` until the time budget or the pass limit is used up,
checks every output, and prints one JSON result line. The job carries the
generated input lines and the expected results; the program sees only the
lines. Each pass's time is also scaled to the reference speed
(refclock.py); with tracing, the spans are folded into per-layer metrics,
scaled the same way.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from refclock import RefClock
from tracer import Tracer, install

# the ten bijection functions whose per-call percentiles are reported
BIJECTIONS = ("fz", "fz_inverse", "phi", "phi_inverse", "psi", "psi_inverse",
              "rcalt_to_lbp", "lbp_to_rcalt", "snake_to_lbp", "lbp_to_snake")
KEEP_DURATIONS = ("permcore.parse", "permcore.format", "paths.parse", "paths.format_path",
                  "paths.wbar", *(f"bijections.{b}" for b in BIJECTIONS))

VERIFY_ROWS = 30


class Counts:
    """Operations attempted and failed, and what the per-layer metrics count."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0  # per pass: verify rows, enumerated objects or mapped lines
        self.error_lines = 0
        self.rows_failed = 0


# Each runner makes one pass through run(argv, **streams) -> (exit status,
# seconds in main) and returns the pass's seconds in main.

def run_verify(run, job, pass_no, counts) -> float:
    out, err = io.StringIO(), io.StringIO()
    status, elapsed = run(["verify", "--n-max", str(job["n_max"])], stdout=out, stderr=err)
    lines = out.getvalue().splitlines()
    passed = sum(1 for row in lines[:-1] if row.split()[2:3] == ["PASS"])
    failed = max(0, VERIFY_ROWS - passed)
    if status != 0 or lines[-1:] != [f"{VERIFY_ROWS}/{VERIFY_ROWS} properties passed"]:
        failed = max(failed, 1)
    counts.items = VERIFY_ROWS
    counts.attempted += VERIFY_ROWS
    counts.failed += failed
    counts.rows_failed = failed
    return elapsed


def run_enumerate(run, job, pass_no, counts) -> float:
    """Each call writes to a file, as a shell redirect would; the file is then
    checked for count, strict text order and SHA-256."""
    path = Path(job["out_dir"]) / "enumerate.txt"
    total = 0.0
    counts.items = 0
    for family, n, expected_count, expected_digest in job["calls"]:
        with open(path, "w", encoding="utf-8") as out:
            status, elapsed = run(["enumerate", "--family", family, "--n", str(n)],
                                  stdout=out, stderr=io.StringIO())
        total += elapsed
        digest = hashlib.sha256()
        count = 0
        ordered = True
        previous = None
        with open(path, "rb") as written:
            for line in written:  # comparing with the newline kept orders like the text
                digest.update(line)
                count += 1
                ordered = ordered and (previous is None or previous < line)
                previous = line
        ok = status == 0 and count == expected_count and ordered and digest.hexdigest() == expected_digest
        counts.items += expected_count
        counts.attempted += expected_count
        counts.failed += 0 if ok else expected_count
    return total


# (bijection, inverse?, input lines, result): a result name that is already
# bound closes a round trip, and the output must equal those lines
MAP_CHAIN = (
    ("snake2lbp", True, "L", "S"),
    ("snake2lbp", False, "S", "L"),
    ("phi", True, "S", "W"),
    ("phi", False, "W", "S"),
    ("psi", False, "S", "R"),
    ("psi", True, "R", "S"),
    ("bigpsi", False, "R", "L2"),
    ("bigpsi", True, "L2", "R"),
    ("wbar", False, "L", "Lbar"),
    ("wbar", True, "Lbar", "L"),
    ("fz", False, "P", "H"),
    ("fz", True, "H", "P"),
)


def run_map(run, job, pass_no, counts) -> float:
    """The round-trip chain over one input set: L labeled ballot paths, P permutations."""
    lines = dict(job["sets"][pass_no % len(job["sets"])])
    total = 0.0
    counts.items = 0
    for bijection, inverse, source, target in MAP_CHAIN:
        argv = ["map", "--bijection", bijection] + (["--inverse"] if inverse else [])
        stdin = io.StringIO("".join(line + "\n" for line in lines[source]))
        out, err = io.StringIO(), io.StringIO()
        status, elapsed = run(argv, stdin=stdin, stdout=out, stderr=err)
        total += elapsed
        result = out.getvalue().splitlines()
        errors = sum(1 for line in err.getvalue().splitlines() if line.startswith("ERROR"))
        failed = errors
        if target in lines:
            want = lines[target]
            failed += sum(a != b for a, b in zip(result, want)) + abs(len(result) - len(want))
        else:
            lines[target] = result
        if status != 0:
            failed = max(failed, 1)
        failed = min(failed, len(lines[source]))  # an ERROR line also leaves a mismatch
        counts.items += len(lines[source])
        counts.attempted += len(lines[source])
        counts.failed += failed
        counts.error_lines += errors
    return total


RUNNERS = {"verify": run_verify, "enumerate": run_enumerate,
           "map-small": run_map, "map-large": run_map}
COMMANDS = {"verify": "verify", "enumerate": "enumerate", "map-small": "map", "map-large": "map"}


def layer_metrics(tracer: Tracer, counts: Counts, verify_rows: list[str], scale: float) -> dict[str, float]:
    """Per-layer metrics from the folded spans, times multiplied by the pass's
    speed scale; a layer the workload never reaches reports 0."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1] * scale

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2] * scale

    def module_self_s(module):
        return scale * sum(own for name, (_, _, own) in totals.items() if name.startswith(module + "."))

    def us(name, q):
        return tracer.percentile_us(name, q) * scale

    m: dict[str, float] = {}
    m["permcore.count_pat_31_2_at.calls"] = calls("permcore.count_pat_31_2_at")
    m["permcore.count_pat_31_2_at.self_s"] = self_s("permcore.count_pat_31_2_at")
    for fn in ("foata", "foata_inverse", "peaks_valleys"):
        m[f"permcore.{fn}.self_s"] = self_s(f"permcore.{fn}")
    m["permcore.self_s"] = module_self_s("permcore")
    m["permcore.parse.us_p50"] = us("permcore.parse", 50)
    m["permcore.format.us_p50"] = us("permcore.format", 50)

    m["paths.validate.calls"] = calls("paths.validate")
    m["paths.validate.self_s"] = self_s("paths.validate")
    m["paths.height_profile.calls"] = calls("paths.height_profile")
    for fn in ("history_rc", "extend_to_rc_fixed", "halve_rc_fixed"):
        m[f"paths.{fn}.self_s"] = self_s(f"paths.{fn}")
    m["paths.self_s"] = module_self_s("paths")
    for fn in ("parse", "format_path", "wbar"):
        m[f"paths.{fn}.us_p50"] = us(f"paths.{fn}", 50)

    for fn in BIJECTIONS:
        m[f"bijections.{fn}.us_p50"] = us(f"bijections.{fn}", 50)
        m[f"bijections.{fn}.us_p90"] = us(f"bijections.{fn}", 90)
    m["bijections.phi_inverse_trace.self_s"] = self_s("bijections.phi_inverse_trace")
    m["bijections.self_s"] = module_self_s("bijections")

    for family in ("snakes", "wip3", "rcalt", "lbp", "laguerre", "altperm"):
        gen = f"families.{family}.generate"
        objects = calls(gen) - tracer.exhausted[gen]
        m[f"families.{family}.generate_objects_per_s"] = objects / total_s(gen) if objects else 0.0
        m[f"families.{family}.enumerate_s"] = total_s(f"families.{family}.enumerate")
        m[f"families.{family}.render_s"] = total_s(f"families.{family}.render")

    for row in verify_rows:
        name = "verify." + row.replace("/", ".")
        m[name + ".s"] = total_s(name)
    m["verify.rows_failed"] = counts.rows_failed

    m["cli.map.self_s"] = self_s("cli.map")
    m["cli.enumerate.self_s"] = self_s("cli.enumerate")
    m["cli.map.error_lines"] = counts.error_lines
    return m


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        tracer = Tracer(KEEP_DURATIONS)
        install(tracer)
    from springerbij import cli, verify

    workload = job["workload"]
    call = cli.main
    if tracer is not None:
        call = tracer.wrap("cli." + COMMANDS[workload], cli.main)
    clock = RefClock()
    if tracer is not None:  # the sampler's time then stays out of its parent span's self time
        clock.sample = tracer.wrap("refclock.sample", clock.sample)
    run = functools.partial(clock.time, call)
    runner = RUNNERS[workload]
    counts = Counts()
    raw: list[float] = []
    scaled: list[float] = []
    clock.start()
    start = time.perf_counter()
    while True:
        mark = clock.mark()
        raw.append(runner(run, job, len(raw), counts))
        scale = clock.scale_since(mark)
        scaled.append(raw[-1] * scale)
        elapsed = time.perf_counter() - start
        if len(raw) >= job["max_passes"] or elapsed + statistics.median(raw) > job["seconds"]:
            break
    clock.stop()
    result = {
        "pass_s": raw,
        "scaled_pass_s": scaled,
        "reference_samples": len(clock.samples),
        "reference_median_s": statistics.median(clock.samples),
        "items_per_pass": counts.items,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, counts, [row for row, _, _ in verify.PROPERTIES], scale)
        result["spans"] = [[parent, name, *entry] for (parent, name), entry in sorted(tracer.stats.items())]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

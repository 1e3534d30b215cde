"""Smoke check of the benchmark's own code; it checks no timings.

    python3 perfbench/smoke.py

Tests the input samplers against exact frequencies at n = 4, then runs every
workload at tiny sizes with tracing off and on, and checks that each run
passes its correctness gates and emits exactly the metric names and units
listed in BENCHMARK.json. Exits 0 when all of it holds.
"""

from __future__ import annotations

import collections
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import sampling

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# 0.999 quantiles of chi-square with 56 and 23 degrees of freedom (Wilson-Hilferty)
CHI2_56_DOF_P999 = 94.5
CHI2_23_DOF_P999 = 49.8


def require(ok: bool, message) -> None:
    """A check that also runs under python -O."""
    if not ok:
        raise AssertionError(message)


class ScriptedRandom:
    """Stands in for random.Random, answering randrange from a fixed list."""

    def __init__(self, answers):
        self.answers = list(answers)

    def randrange(self, stop):
        value = self.answers.pop(0)
        if not 0 <= value < stop:
            raise ValueError(f"scripted {value} outside range({stop})")
        return value


def all_lbp(n: int) -> list[str]:
    """Every labeled ballot path of length n, listed independently of the sampler."""
    out = []

    def rec(steps, weights, h):
        if len(steps) == n:
            out.append(steps + ";" + ",".join(map(str, weights)))
            return
        for w in range(h + 1):
            rec(steps + "U", weights + [w], h + 1)
        for w in range(h):
            rec(steps + "D", weights + [w], h - 1)

    rec("", [], 0)
    return out


def check_perm_sampler() -> None:
    # Fisher-Yates at n = 4 draws from range(4), range(3), range(2): each of
    # the 24 answer scripts must give a different permutation.
    seen = {sampling.sample_perm(4, ScriptedRandom(script))
            for script in itertools.product(range(4), range(3), range(2))}
    want = {" ".join(map(str, p)) for p in itertools.permutations(range(1, 5))}
    require(seen == want, "Fisher-Yates is not a bijection from scripts to permutations")
    rng = random.Random(7)
    counts = collections.Counter(sampling.sample_perm(4, rng) for _ in range(24 * 400))
    chi2 = sum((c - 400) ** 2 / 400 for c in counts.values()) + 400 * (24 - len(counts))
    require(chi2 < CHI2_23_DOF_P999, f"permutation frequencies off: chi2 {chi2:.1f}")


def check_lbp_sampler() -> None:
    n = 4
    rows = sampling.lbp_completions(n)
    paths = all_lbp(n)
    require(rows[0][0] == len(paths) == 57, (rows[0][0], len(paths)))
    # exact: the draw at each step splits range(rows[i][h]) into one block per
    # (step, label), sized by the completions it leaves; every path must get 1/57
    for text in paths:
        steps, weights = text.split(";")
        prob, h = Fraction(1), 0
        for i, s in enumerate(steps):
            nh = h + 1 if s == "U" else h - 1
            prob *= Fraction(rows[i + 1][nh], rows[i][h])
            h = nh
        require(prob == Fraction(1, 57), (text, prob))
    rng = random.Random(7)
    counts = collections.Counter(sampling.sample_lbp(n, rng, rows) for _ in range(57 * 200))
    require(set(counts) == set(paths), "sampler left out or invented paths")
    chi2 = sum((c - 200) ** 2 / 200 for c in counts.values())
    require(chi2 < CHI2_56_DOF_P999, f"path frequencies off: chi2 {chi2:.1f}")


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
            require(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == want, f"{workload} trace {trace}: names or units differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                require(type(m["value"]) in (int, float), (name, m))
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")


def main() -> int:
    check_perm_sampler()
    print("ok  permutation sampler")
    check_lbp_sampler()
    print("ok  labeled ballot path sampler")
    check_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())

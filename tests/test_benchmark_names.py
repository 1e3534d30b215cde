"""The benchmark's per-layer metrics still name functions the tracer can wrap,
map reaches each bijection function they name, its verify rows are the
registry's, and enumerate still gives its digests."""

import ast
import hashlib
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from springerbij import bijections, paths, permcore, verify
from springerbij.bijections import BIJECTIONS
from springerbij.cli import main

ROOT = Path(__file__).resolve().parents[1]
MODULES = {"permcore": permcore, "paths": paths, "bijections": bijections}


def _literal(module: str, name: str):
    # read, not imported: the module-level literal `name` of perfbench/<module>.py
    tree = ast.parse((ROOT / "perfbench" / f"{module}.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name])


def _is_public(span: str) -> bool:
    # the rule of perfbench/tracer.py's install: a public function defined in its module
    module, _, attr = span.partition(".")
    fn = getattr(MODULES[module], attr, None)
    return not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == MODULES[module].__name__


def test_per_layer_metrics_name_public_functions_or_groups():
    # a renamed or privatized function would make its metrics read 0 without an error
    groups = _literal("tracer", "GROUPS")
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    checked = 0
    for metric in metrics:
        span = metric.rsplit(".", 1)[0]  # drop the statistic: calls, self_s, us_p50, ...
        if span.partition(".")[0] not in MODULES or "." not in span:
            continue  # another layer, or a whole-module total such as paths.self_s
        members = [name for name, group in groups.items() if group == span] or [span]
        assert any(_is_public(name) for name in members), metric
        checked += 1
    assert checked, "no per-layer metric names a permcore, paths or bijections function"


# one valid line per domain; maps one line in each bijection and direction under
# the benchmark's tracer, and prints the tracer's totals
MAP_LINES = {
    "wip3": "1 5 2 6 7 3 8 9 4 / 2 5 6 3 1 7 8 4 9",
    "snakes": "2 -1 5 4 7 -6 -3",
    "rcalt": "5 2 14 11 12 7 9 6 8 3 4 1 13 10",
    "perm": "4 3 1 2 9 6 8 5 7",
    "laguerre": "UHTDUUHDD;0,1,0,0,0,0,2,1,0",
    "lbp": "UUUDDUU;0,0,1,2,0,0,0",
}
TRACED_MAPS = """
import io, json, sys
sys.path[:0] = sys.argv[1:3]
import tracer
spans = tracer.Tracer()
tracer.install(spans)  # before springerbij.cli is imported
from springerbij.cli import main
codes = [main(argv, stdin=io.StringIO(line), stdout=io.StringIO(), stderr=sys.stderr)
         for argv, line in json.loads(sys.argv[3])]
print(json.dumps({"codes": codes, "totals": spans.totals()}))
"""


def test_bijection_metrics_name_functions_that_map_reaches():
    # a wrapped function that map no longer calls reads 0 without an error, say
    # bijections.phi_inverse_trace.self_s if phi_inverse stopped calling it
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    spans = {m.rsplit(".", 1)[0] for m in metrics if m.startswith("bijections.") and m.count(".") == 2}
    runs = [(["map", "--bijection", name, *flag], MAP_LINES[source] + "\n")
            for name, bij in BIJECTIONS.items()
            for flag, source in (([], bij.domain), (["--inverse"], bij.codomain))]
    child = subprocess.run(
        [sys.executable, "-c", TRACED_MAPS, str(ROOT / "perfbench"), str(ROOT / "src"), json.dumps(runs)],
        capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(child.stdout)
    assert report["codes"] == [0] * len(runs) and len(runs) == 12, child.stderr
    assert len(spans) == 11 and sorted(s for s in spans if not report["totals"].get(s, [0])[0]) == []


def test_verify_metrics_are_the_verify_rows():
    # the benchmark child requires "30/30 properties passed" and times each row
    # by name: a renamed, added or removed row would fail every verify pass
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    timed = {m for m in metrics if m.startswith("verify.") and m.endswith(".s")}
    assert timed == {f"verify.{name.replace('/', '.')}.s" for name, _, _ in verify.PROPERTIES}
    assert _literal("child", "VERIFY_ROWS") == len(verify.PROPERTIES)


@pytest.mark.parametrize("family, n, count, digest", [call for scale in ("smoke", "full")
                                                      for call in _literal("run", "ENUMERATE_CALLS")[scale]])
def test_enumerate_reproduces_the_benchmark_digests(family, n, count, digest):
    # the benchmark child rejects every enumerate pass whose output has another SHA-256;
    # the full calls (about 0.4 s in all) pin each search's text and order at the workload's n
    out, err = io.StringIO(), io.StringIO()
    assert main(["enumerate", "--family", family, "--n", str(n)], stdout=out, stderr=err) == 0
    assert (err.getvalue(), out.getvalue().count("\n")) == ("", count)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

"""The benchmark's per-layer metrics still name functions the tracer can wrap,
its verify rows are the registry's, and enumerate still gives its digests."""

import ast
import hashlib
import inspect
import io
import json
from pathlib import Path

import pytest

from springerbij import bijections, paths, permcore, verify
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


def test_verify_metrics_are_the_verify_rows():
    # the benchmark child requires "30/30 properties passed" and times each row
    # by name: a renamed, added or removed row would fail every verify pass
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    timed = {m for m in metrics if m.startswith("verify.") and m.endswith(".s")}
    assert timed == {f"verify.{name.replace('/', '.')}.s" for name, _, _ in verify.PROPERTIES}
    assert _literal("child", "VERIFY_ROWS") == len(verify.PROPERTIES)


@pytest.mark.parametrize("family, n, count, digest", _literal("run", "ENUMERATE_CALLS")["smoke"])
def test_enumerate_reproduces_the_benchmark_digests(family, n, count, digest):
    # the benchmark child rejects every enumerate pass whose output has another SHA-256
    out, err = io.StringIO(), io.StringIO()
    assert main(["enumerate", "--family", family, "--n", str(n)], stdout=out, stderr=err) == 0
    assert (err.getvalue(), out.getvalue().count("\n")) == ("", count)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

"""The benchmark's per-layer metrics still name functions the tracer can wrap."""

import ast
import inspect
import json
from pathlib import Path

from springerbij import bijections, paths, permcore, verify

ROOT = Path(__file__).resolve().parents[1]
MODULES = {"permcore": permcore, "paths": paths, "bijections": bijections}


def _tracer_groups() -> dict[str, str]:
    # read, not imported: GROUPS is a literal in perfbench/tracer.py
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["GROUPS"])


def _is_public(span: str) -> bool:
    # the rule of perfbench/tracer.py's install: a public function defined in its module
    module, _, attr = span.partition(".")
    fn = getattr(MODULES[module], attr, None)
    return not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == MODULES[module].__name__


def test_per_layer_metrics_name_public_functions_or_groups():
    # a renamed or privatized function would make its metrics read 0 without an error
    groups = _tracer_groups()
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
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    rows = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["VERIFY_ROWS"])
    assert rows == len(verify.PROPERTIES)

"""Spans around the program's functions, installed from outside the program.

A span covers one call (or one next() of a generator). Spans are folded as
they close into totals per (parent span name, span name): call count,
inclusive seconds and self seconds, where self time is the span minus the
time its child spans cover. Folding keeps memory flat: a traced
`verify --n-max 8` closes millions of spans. For the names whose
per-call percentiles are reported, each call's inclusive duration is kept
as well. Nothing is written while the program runs.

`install` must run before `springerbij.cli` is imported, because the CLI's
map table binds parse and render functions at import time.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import inspect
import statistics
import sys
import time
from array import array

# functions reported under one shared span name
GROUPS = {
    "permcore.parse_perm": "permcore.parse",
    "permcore.parse_signed": "permcore.parse",
    "permcore.format_perm": "permcore.format",
    "permcore.format_signed": "permcore.format",
    "permcore.left_peaks": "permcore.peaks_valleys",
    "permcore.right_valleys": "permcore.peaks_valleys",
    "paths.validate_labeled_ballot": "paths.validate",
    "paths.validate_laguerre": "paths.validate",
    "paths.parse_labeled_ballot": "paths.parse",
    "paths.parse_laguerre": "paths.parse",
}


class Tracer:
    def __init__(self, keep_durations=()):
        self._stack = [["", 0.0]]  # open spans: [name, seconds covered by child spans]
        self.stats: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total_s, self_s]
        self.durations = {name: array("d") for name in keep_durations}
        self.exhausted: collections.Counter[str] = collections.Counter()

    def wrap(self, name: str, fn):
        """fn, recording one span per call."""
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        durations = self.durations.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                entry = stats.get((parent[0], name))
                if entry is None:
                    stats[(parent[0], name)] = [1, elapsed, elapsed - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
                if durations is not None:
                    durations.append(elapsed)

        return traced

    def wrap_generator(self, name: str, fn):
        """fn returning an iterator, recording one span per next()."""
        step = self.wrap(name, next)
        exhausted = self.exhausted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)

            def spans():
                while True:
                    try:
                        obj = step(it)
                    except StopIteration:
                        exhausted[name] += 1
                        return
                    yield obj

            return spans()

        return traced

    # -- reading the totals -------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s], summed over parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, own) in self.stats.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out

    def percentile_us(self, name: str, q: int) -> float:
        """q-th percentile of per-call inclusive microseconds (0 if never called)."""
        data = self.durations[name]
        if len(data) < 2:
            return data[0] * 1e6 if data else 0.0
        return statistics.quantiles(data, n=100)[q - 1] * 1e6


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the library modules, the family records and
    the verify rows, in every namespace that refers to them."""
    if "springerbij.cli" in sys.modules:
        raise RuntimeError("install the tracer before springerbij.cli is imported")
    import springerbij
    from springerbij import bijections, families, paths, permcore, verify

    layers = (permcore, paths, families, bijections)
    replace = {}
    for mod in layers:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{short}.{attr}"
                replace[fn] = tracer.wrap(GROUPS.get(name, name), fn)
    for fam_name, fam in list(families.FAMILIES.items()):
        enumerate_ = replace[fam.enumerate] = tracer.wrap(f"families.{fam_name}.enumerate", fam.enumerate)
        generate = replace[fam.generate] = tracer.wrap_generator(f"families.{fam_name}.generate", fam.generate)
        render = tracer.wrap(f"families.{fam_name}.render", replace.get(fam.render, fam.render))
        families.FAMILIES[fam_name] = dataclasses.replace(
            fam, enumerate=enumerate_, generate=generate, render=render)
    for mod in (springerbij, *layers, verify):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replace:
                setattr(mod, attr, replace[value])
    verify.PROPERTIES[:] = [
        (row, cap, tracer.wrap("verify." + row.replace("/", "."), check))
        for row, cap, check in verify.PROPERTIES
    ]

"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` wraps every public function of the library modules
(core, structure, modsets, basis, characters) and the CLI entry point
``cli.main`` in every namespace of the package that holds it, including
the modules that imported it by name, so a call from one layer into
another becomes a child span of the caller.  The CLI is wrapped at its
entry point only, so ``cli.main`` self time holds parsing and rendering.

Spans stay in memory as (name, start, end, parent, op) and are written
out once the run ends.  Calls made inside ``--workers`` pool processes
run in another process and are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("core", "structure", "modsets", "basis", "characters", "cli")


def _pairs_marked(result) -> int:
    # Each appended term marks one value per earlier term: sum of k over
    # appended terms.  A lower bound, since a sieve regrowth re-marks pairs.
    s, n = len(result.seed), len(result.terms)
    return (n * (n - 1) - s * (s - 1)) // 2


def _elements(args, kwargs):
    return args[0] if args else kwargs["elements"]


# Work counts taken at layer boundaries: name -> (counter, f(args, kwargs, result)).
COUNTERS = {
    "core.generate": (
        ("core.generate.terms", lambda a, k, r: len(r.terms)),
        ("core.pairs_marked", lambda a, k, r: _pairs_marked(r)),
    ),
    "modsets.verify_near_modular": (
        ("modsets.pair_cells", lambda a, k, r: len(_elements(a, k)) ** 2),
    ),
    "modsets.search_near_modular": (
        ("modsets.search_near_modular.sets_found", lambda a, k, r: len(r)),
    ),
    "basis.expand_basis": (("basis.expand_basis.terms", lambda a, k, r: len(r)),),
    "characters.plan_seed": (
        ("characters.plan_seed.cover_elements", lambda a, k, r: len(r.elements)),
    ),
}


class Tracer:
    """In-memory span recorder with per-layer error and work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        counters = COUNTERS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.clock(), None, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # Count an exception once, where it leaves its layer.
                if parent < 0 or not self.spans[parent][0].startswith(layer + "."):
                    self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[2] = self.clock()
                self._stack.pop()
            for counter, measure in counters:
                self.counts[counter] += measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each public function with its traced wrapper everywhere."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"stanley.{layer}")
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                if attr.startswith("_") or (layer == "cli" and attr != "main"):
                    continue
                wrapped[value] = self.wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "stanley" and not mod_name.startswith("stanley."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    Children are clipped to the parent's interval and their overlaps are
    merged, so the covered part is the measure of the union.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


"""In-memory spans around the library's public functions.

``Tracer.install()`` replaces every public function of each library module
(its ``__all__``) with a wrapper that records a span: name, start, end and
the index of the enclosing span.  The modules import each other's names
with ``from .x import y``, so the wrapper is installed in every loaded
``weylbuildings`` namespace that holds the original function, not only in
the defining module.  ``BallGraph.weyl_word`` is a method and is wrapped on
the class.  Nothing under ``src/`` is edited; the wrappers live only in the
traced process.

Spans stay in memory until ``summary()`` folds them into per-name call
counts and self times (a span's duration minus the part covered by its
child spans), plus a few work counters read off arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("coxeter", "hecke", "poincare", "period", "building", "harmonic", "boundary", "cli")


def _bfs_elements(args, result) -> tuple[str, int]:
    return "coxeter.elements_enumerated", sum(result.counts)


def _product_terms(args, result) -> tuple[str, int]:
    return "hecke.product_terms", len(result.terms)


def _chambers(args, result) -> tuple[str, int]:
    return "building.chambers_enumerated", len(result)


def _unknowns(args, result) -> tuple[str, int]:
    graph = args[0]
    return "harmonic.rigidity_unknowns", sum(1 for d in graph.distance if d <= graph.radius - 1)


def _ends(args, result) -> tuple[str, int]:
    return "boundary.ends_evaluated", len(result.parts)


# work counters: span name -> function of (positional args, result)
COUNTERS = {
    "coxeter.bfs_growth": _bfs_elements,
    "hecke.multiply": _product_terms,
    "building.ball": _chambers,
    "harmonic.finite_support_rigidity": _unknowns,
    "boundary.boundary_value": _ends,
}


class Tracer:
    def __init__(self) -> None:
        # one (name, start, end, parent index) tuple per finished span
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                key, amount = counter(args, result)
                counts[key] = counts.get(key, 0) + amount
            return result

        return traced

    def install(self) -> None:
        """Wrap every public library function wherever it was looked up."""
        modules = [importlib.import_module(f"weylbuildings.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "weylbuildings"]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        building = importlib.import_module("weylbuildings.building")
        graph_cls = building.BallGraph
        graph_cls.weyl_word = self._wrap("building.weyl_word", graph_cls.weyl_word)

    def summary(self) -> dict[str, float]:
        """Per-name ``.calls`` and ``.self_s`` totals, plus work counters."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, float] = dict(self.counts)
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - child_time[i]
        return out

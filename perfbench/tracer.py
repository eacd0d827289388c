"""Outside-in span tracer for the kinatlas layers.

`Tracer.install()` wraps every public function of each layer module and
every public method (plain or static) of the classes those modules define.
A wrapped function is rebound under every `kinatlas.*` module attribute that
held the original object, so names imported with `from .x import y` are
traced too; methods are patched once on their class.  Nothing under `src/`
is edited.

Each call records a span (name, start, end, parent) in flat in-memory
arrays.  Spans are processed and written out only when the run ends:
inclusive time counts the outermost call of a recursive chain once, and self
time is a span's duration minus the durations of its direct child spans.
One span stack serves the whole process, so the package must run on one
thread (`ATLAS_THREADS` unset, the default).
Calls into unwrapped code (private helpers, dunder arithmetic, the standard
library) therefore count toward the self time of the nearest traced caller.

Besides spans, a few counts are derived from the objects that traced calls
return (or the inputs they receive): cells and base roots of each
decomposition, candidate pairs against edges of each adjacency graph,
`segment_crosses` hits, continuation steps and isolated roots.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("ratpoly", "realroots", "cad2d", "adjacency", "mechanism",
          "domains", "trajectory", "svg", "cli")
PACKAGE = "kinatlas"


def _observe_decompose(counts, args, kwargs, dec):
    counts["cad2d.cells"] += len(dec.cells)
    counts["cad2d.base_roots"] += len(dec.base_roots)
    counts["cad2d.base_degree"] = max(counts["cad2d.base_degree"], dec.base_poly.degree)


def _observe_build_graph(counts, args, kwargs, graph):
    dec = args[0] if args else kwargs["dec"]
    vertical = sum(len(col) - 1 for col in dec.columns)
    horizontal = sum(len(a) * len(b) for a, b in zip(dec.columns, dec.columns[1:]))
    counts["adjacency.candidate_pairs"] += vertical + horizontal
    counts["adjacency.edges"] += len(graph.edges)


def _observe_segment_crosses(counts, args, kwargs, result):
    crossed = result[0] if isinstance(result, tuple) else result
    counts["realroots.segment_crosses.hits"] += bool(crossed)


def _observe_isolate(counts, args, kwargs, roots):
    counts["realroots.isolate.roots"] += len(roots)


def _observe_follow_chain(counts, args, kwargs, chain):
    counts["trajectory.follow_chain.steps"] += len(chain.points) - 1


OBSERVERS = {
    "cad2d.decompose": _observe_decompose,
    "adjacency.build_graph": _observe_build_graph,
    "realroots.segment_crosses": _observe_segment_crosses,
    "realroots.isolate": _observe_isolate,
    "trajectory.follow_chain": _observe_follow_chain,
}


class Tracer:
    """Span recorder for one run; `install` before the first call into the
    package, `uninstall` after the last."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        observe, counts = OBSERVERS.get(name), self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        # rebind every module attribute that holds an original function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, cls, prefix: str):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, staticmethod):
                new = staticmethod(self._wrap(member.__func__, f"{prefix}.{attr}"))
            elif inspect.isfunction(member):
                new = self._wrap(member, f"{prefix}.{attr}")
            else:
                continue
            self._undo.append((cls, attr, member))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, per-layer self
        seconds, and the derived counts."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = array("d", bytes(8 * n))          # summed child durations
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        k = len(self.names)
        calls, incl, self_s = [0] * k, [0.0] * k, [0.0] * k
        # spans are stored in call order, so a stack rebuilt from parent
        # links tells whether the same function is already active
        active = [0] * k
        stack: list[int] = []
        for i in range(n):
            p, nid = parents[i], names[i]
            while stack and stack[-1] != p:
                active[names[stack.pop()]] -= 1
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if active[nid] == 0:
                incl[nid] += dur
            active[nid] += 1
            stack.append(i)
        functions = {self.names[j]: {"calls": calls[j], "incl_s": incl[j], "self_s": self_s[j]}
                     for j in range(k) if calls[j]}
        layers = {layer: 0.0 for layer in LAYERS}
        for name, f in functions.items():
            layers[name.split(".", 1)[0]] += f["self_s"]
        return {"spans": n, "functions": functions, "layer_self_s": layers,
                "counts": dict(self.counts)}

    def write(self, stem: Path):
        """Spans as raw arrays (<stem>.spans: int32 names, int32 parents,
        float64 starts, float64 ends, each `count` long) plus an index
        (<stem>.json) with the name table."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as f:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)
        stem.with_suffix(".json").write_text(json.dumps(
            {"count": len(self.span_name), "names": self.names,
             "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"]},
            indent=1) + "\n")

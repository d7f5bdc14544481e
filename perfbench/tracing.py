"""Span tracing of memscat's layers from outside the package.

`Tracer.installed()` wraps every public function of the layer modules and
rebinds the wrapper wherever the package bound the original by name: module
attributes (`cli.assemble_system`, `analysis.solve`, ...), module-level dicts
(`solver.BACKENDS`) and `BlockOperator.matvec`.  A binding the scan cannot
patch (a tuple or list holding a function) raises instead of letting spans
silently miss calls.  Leaving the context restores every original.

Spans (name, layer, parent, start, end) are kept in memory.  A span's self
time is the wall time during which it is a leaf of the tree of open spans,
shared equally among the leaves open at the same moment (the worker threads
of `sweep --threads`), so the self times of one pass add up to the time its
root spans cover.

Layers are the package modules; `presets` counts as `scene`, the CSV and
plot writers as `output`, and `BlockOperator.matvec` as `solver`, since only
the iterative backends and residual checks call it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = {"specfun": "specfun", "assembly": "assembly",
                 "solver": "solver", "analysis": "analysis", "field": "field",
                 "scene": "scene", "presets": "scene", "cli": "cli"}
OUTPUT_WRITERS = {"write_field_csv", "write_plot_script", "write_report_csv",
                  "write_bounds_csv", "dump_system"}
LAYERS = ("specfun", "assembly", "solver", "analysis", "field", "output",
          "scene", "cli")
# the self times that partition a traced pass
SELF_METRICS = ("specfun.self_s", "assembly.self_s", "solver.self_s",
                "analysis.self_s", "field.self_s", "output.s", "scene.s",
                "cli.self_s")
ASSEMBLERS = {"assembly.assemble_system", "assembly.assemble_raw"}
# metric name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "specfun.calls": "count", "specfun.values": "count",
    "specfun.self_s": "s",
    "assembly.calls": "count", "assembly.blocks": "count",
    "assembly.self_s": "s",
    "solver.self_s": "s", "solver.dense.calls": "count",
    "solver.dense.s": "s", "solver.gmres.s": "s",
    "solver.gmres.iterations": "count", "solver.matvec.calls": "count",
    "solver.matvec.s": "s",
    "analysis.self_s": "s", "analysis.sweep.calls": "count",
    "analysis.sweep.self_s": "s",
    "field.points": "count", "field.self_s": "s",
    "output.bytes": "bytes", "output.s": "s",
    "scene.s": "s", "cli.self_s": "s",
    "trace.pass_s": "s", "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "work", "self_s",
                 "open_children")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = None
        self.work = 0
        self.self_s = 0.0
        self.open_children = 0


def _arg(args, kwargs, pos, *names):
    if len(args) > pos:
        return args[pos]
    return next(kwargs[n] for n in names if n in kwargs)


def _orders_times_args(args, kwargs, result):
    """Bessel values a specfun call computes: (max order + 1) x arguments."""
    return (abs(int(_arg(args, kwargs, 0, "m_max", "m"))) + 1) \
        * int(np.size(_arg(args, kwargs, 1, "x")))


def _pair_blocks(args, kwargs, result):
    """Coupling blocks an assembly builds: M (M - 1)."""
    m = _arg(args, kwargs, 0, "scene").n_cylinders
    return m * (m - 1)


def _work_fn(qualname, fn):
    """What a span counts as its work, or None."""
    if qualname.startswith("specfun.") and qualname.split(".")[1].startswith(
            ("bessel", "hankel")):
        return _orders_times_args
    if qualname in ASSEMBLERS:
        return _pair_blocks
    if qualname == "field.total_field_grid":
        return lambda a, kw, r: int(_arg(a, kw, 4, "nx")) \
            * int(_arg(a, kw, 5, "ny"))
    if qualname == "solver.solve_gmres":
        return lambda a, kw, r: r.iterations
    if qualname.split(".")[-1] in OUTPUT_WRITERS:
        sig = inspect.signature(fn)
        return lambda a, kw, r: os.path.getsize(
            sig.bind(*a, **kw).arguments["path"])
    return None


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._local = threading.local()
        self._driver_stack: list[Span] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, qualname, layer):
        work = _work_fn(qualname, fn)
        spans, local_stack, driver = self.spans, self._stack, \
            self._driver_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local_stack()
            # a worker thread's first span hangs under the span that is
            # waiting for it on the driver thread
            parent = stack[-1] if stack else (driver[-1] if driver else None)
            span = Span(qualname, layer, parent)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span.work = work(args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return wrapper

    def _originals(self):
        """{function: (qualname, layer)} for every public layer function."""
        out = {}
        for mod_name, layer in LAYER_MODULES.items():
            mod = importlib.import_module(f"{self.package.__name__}.{mod_name}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    out[obj] = (f"{mod_name}.{name}",
                                "output" if name in OUTPUT_WRITERS else layer)
        op_cls = importlib.import_module(
            f"{self.package.__name__}.assembly").BlockOperator
        out[op_cls.matvec] = ("assembly.BlockOperator.matvec", "solver")
        return out

    @contextlib.contextmanager
    def installed(self):
        """Record spans of every call into the package inside the block."""
        originals = self._originals()
        wrappers = {id(fn): self._wrap(fn, *info)
                    for fn, info in originals.items()}
        op_cls = importlib.import_module(
            f"{self.package.__name__}.assembly").BlockOperator
        restore = [(op_cls, "matvec", op_cls.matvec)]
        setattr(op_cls, "matvec", wrappers[id(op_cls.matvec)])
        modules = [m for name, m in list(sys.modules.items())
                   if name == self.package.__name__
                   or name.startswith(self.package.__name__ + ".")]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            restore.append((obj, key, val))
                            obj[key] = wrappers[id(val)]
                elif isinstance(obj, (list, tuple)) and any(
                        id(v) in wrappers for v in obj):
                    raise RuntimeError(f"{mod.__name__}.{name} holds a layer "
                                       "function the tracer cannot rebind")
                elif id(obj) in wrappers:
                    restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        self._local.stack = self._driver_stack
        try:
            yield self
        finally:
            for target, key, val in reversed(restore):
                if isinstance(target, dict):
                    target[key] = val
                else:
                    setattr(target, key, val)

    def reset(self) -> None:
        self.spans.clear()

    def write_spans(self, path) -> None:
        """Dump the recorded spans as a JSON list: name, layer, index of the
        parent span, start and end in seconds from the first span, self time
        and work count (self times are those of the last pass_metrics())."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"name": s.name, "layer": s.layer,
                 "parent": None if s.parent is None else index[id(s.parent)],
                 "start": s.start - t0, "end": s.end - t0,
                 "self_s": s.self_s, "work": s.work} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

    # -- analysis -----------------------------------------------------------

    def _assign_self_times(self) -> None:
        events = []
        for i, s in enumerate(self.spans):
            s.self_s, s.open_children = 0.0, 0
            if s.end > s.start:
                events.append((s.start, 1, i, s))
                events.append((s.end, 0, -i, s))
        leaves, is_open = set(), set()
        prev = None
        for t, starting, _, s in sorted(events, key=lambda e: e[:3]):
            if leaves:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    leaf.self_s += share
            prev = t
            p = s.parent if s.parent is not None and id(s.parent) in is_open \
                else None
            if starting:
                is_open.add(id(s))
                leaves.add(s)
                if p is not None:
                    p.open_children += 1
                    leaves.discard(p)
            else:
                is_open.discard(id(s))
                leaves.discard(s)
                if p is not None:
                    p.open_children -= 1
                    if p.open_children == 0:
                        leaves.add(p)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        self._assign_self_times()
        m = defaultdict(float)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = 0.0
        for s in self.spans:
            m[f"{s.layer}.self_s"] += s.self_s
            entry = s.parent is None or s.parent.layer != s.layer
            if s.layer == "specfun" and entry:
                m["specfun.calls"] += 1
                m["specfun.values"] += s.work
            elif s.name in ASSEMBLERS:
                m["assembly.calls"] += 1
                m["assembly.blocks"] += s.work
            elif s.name == "solver.solve_dense":
                m["solver.dense.calls"] += 1
                m["solver.dense.s"] += s.self_s
            elif s.name == "solver.solve_gmres":
                m["solver.gmres.s"] += s.self_s
                m["solver.gmres.iterations"] += s.work
            elif s.name == "assembly.BlockOperator.matvec":
                m["solver.matvec.calls"] += 1
                m["solver.matvec.s"] += s.self_s
            elif s.name == "analysis.convergence_sweep":
                m["analysis.sweep.calls"] += 1
            if s.layer == "analysis":
                top = s
                while top.parent is not None and top.parent.layer == "analysis":
                    top = top.parent
                if top.name == "analysis.convergence_sweep":
                    m["analysis.sweep.self_s"] += s.self_s
            elif s.layer == "field" and entry:
                m["field.points"] += s.work
            elif s.layer == "output" and entry:
                m["output.bytes"] += s.work
        m["output.s"] = m.pop("output.self_s")
        m["scene.s"] = m.pop("scene.self_s")
        return {name: m.get(name, 0.0) for name in METRICS
                if not name.startswith("trace.")}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}

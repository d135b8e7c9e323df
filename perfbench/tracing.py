"""Span tracing of germforge's layers from outside the library.

`Tracer.install()` replaces each public function of the layer modules with a
wrapper that records a span, in every module that holds the function by
name (the layers do `from ._linalg import fd_jacobian`, the benchmark's
workloads do `from germforge import ...`).  A few methods are wrapped on
their class.  `uninstall()` puts every original back, so untraced passes run
the library unchanged.

A span is `[name, start, end, parent, op, counts]`: parent is the index of
the enclosing span (-1 for an op's root span), op the op id, and counts a
dict of events seen while the span was innermost (model evaluations by role,
`gamma` and `contains_quadrant_point` calls, `a_vector` misses, radius
shrinks, perturbation retries).  Spans stay in memory until `aggregate()`
folds them into per-name totals; self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import types

LAYERS = ("_linalg", "spaces", "germs", "splicing", "fredholm", "cones", "solution", "orientation", "degree")


class Tracer:
    """Spans and counts of one traced pass; `counter` is the workload's
    EvalCounter, `extra_namespaces` further modules to patch."""

    def __init__(self, counter, extra_namespaces=()):
        self.counter = counter
        self.extra_namespaces = tuple(extra_namespaces)
        self.spans = []
        self.stack = []
        self.op = -1
        self._patches = []

    # ------------------------------------------------------------- recording

    def note(self, key):
        """Add 1 to a count of the innermost open span."""
        if self.stack:
            rec = self.spans[self.stack[-1]]
            counts = rec[5]
            if counts is None:
                counts = rec[5] = {}
            counts[key] = counts.get(key, 0) + 1

    def _note_eval(self, role):
        self.note("evals." + role)

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(rec, args, kwargs, result) may annotate it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                if after is not None:
                    after(rec, args, kwargs, None)
                raise
            rec[2] = clock()
            stack.pop()
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return traced

    def counted(self, key, fn):
        """Wrap fn so each call adds 1 to `key` on the innermost span."""
        note = self.note

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note(key)
            return fn(*args, **kwargs)

        return wrapper

    def _a_vector_span(self, fn):
        """Span around GoodParametrization.a_vector, renamed `solution.a_map`
        when the call missed the chart's memo (the memo grew)."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(chart, t):
            before = len(chart._cache)
            rec = ["solution.a_vector", clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(chart, t)
            finally:
                rec[2] = clock()
                stack.pop()
                if len(chart._cache) > before:
                    rec[0] = "solution.a_map"

        return traced

    def begin_op(self, op_id):
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id, None])

    def end_op(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        from germforge import solution, spaces

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "germforge" or n.startswith("germforge.")) and m is not None]
        namespaces.extend(self.extra_namespaces)
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["germforge." + layer]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                # metric names may not start with "_": _linalg is named linalg
                wrappers[fn] = self.span(f"{layer.lstrip('_')}.{attr}", fn, _AFTER.get(attr))
        cones = sys.modules["germforge.cones"]
        for attr in ("nnls", "linprog"):
            wrappers[getattr(cones, attr)] = self.span(f"cones.{attr}", getattr(cones, attr))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(ns, attr, wrappers[value])
        gp = solution.GoodParametrization
        self._patch(gp, "a_vector", self._a_vector_span(gp.a_vector))
        self._patch(gp, "gamma", self.counted("gamma", gp.gamma))
        self._patch(spaces.GradedSpace, "contains_quadrant_point",
                    self.counted("contains_quadrant_point", spaces.GradedSpace.contains_quadrant_point))
        self.counter.on_eval = self._note_eval
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.counter.on_eval = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------- analysis

    def take_spans(self):
        """Hand over the recorded spans and start an empty record."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _build_parametrization_after(rec, args, kwargs, chart):
    # the chart keeps the radius it reached by halving the requested one
    if chart is not None:
        from germforge.solution import build_parametrization
        radius = _bound(build_parametrization, args, kwargs)["radius"]
        rec[5] = dict(rec[5] or {}, shrinks=int(round(math.log2(radius / chart.radius))))


def _integrate_form_after(rec, args, kwargs, result):
    from germforge.degree import integrate_form
    a = _bound(integrate_form, args, kwargs)
    k = a["omega"].degree
    charts = sum(1 for c in a["atlas"].charts if c.dim == k)
    rec[5] = dict(rec[5] or {}, nodes=charts * a["nodes_per_axis"] ** k)


def _generic_perturbation_after(rec, args, kwargs, outcome):
    # a raised RetryExhausted used up every retry; a zero perturbation bumps nothing
    from germforge.degree import RETRY_LIMIT
    counts = rec[5] = rec[5] or {}
    counts["retries"] = RETRY_LIMIT if outcome is None else outcome.retries
    counts["bumped"] = int(outcome is not None and outcome.lambdas.size > 0)


_AFTER = {
    "build_parametrization": _build_parametrization_after,
    "generic_perturbation": _generic_perturbation_after,
    "integrate_form": _integrate_form_after,
}


def aggregate(spans):
    """Per-name totals of one traced pass.

    Returns {name: {"calls", "self_s", "incl_s", "incl": {key: count}}} where
    `incl` sums each span's counts over its whole subtree, including the
    number of descendant spans of each name under "n.<name>".
    """
    n = len(spans)
    child_time = [0.0] * n
    incl = [None] * n
    for i in range(n - 1, -1, -1):
        name, start, end, parent, _, counts = spans[i]
        own = dict(counts) if counts else {}
        if incl[i]:
            for k, v in incl[i].items():
                own[k] = own.get(k, 0) + v
        incl[i] = own
        if parent >= 0:
            child_time[parent] += end - start
            acc = incl[parent]
            if acc is None:
                acc = incl[parent] = {}
            for k, v in own.items():
                acc[k] = acc.get(k, 0) + v
            key = "n." + name
            acc[key] = acc.get(key, 0) + 1
    totals = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        t = totals.get(name)
        if t is None:
            t = totals[name] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "incl": {}}
        t["calls"] += 1
        dur = end - start
        t["self_s"] += dur - child_time[i]
        t["incl_s"] += dur
        for k, v in incl[i].items():
            t["incl"][k] = t["incl"].get(k, 0) + v
    return totals

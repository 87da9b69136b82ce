"""Outside-in span recorder for the traced benchmark run.

The program has no timer hooks of its own, so the tracer wraps the public
functions of ``cpfast.tensor``, ``cpfast.kruskal``, ``cpfast.hessian`` and
``cpfast.solver`` from outside.  ``from .kruskal import mttkrp`` copies the
binding into ``cpfast.solver``, so patching only the defining module would
miss those calls: every ``cpfast.*`` module that holds the same function
object gets the wrapper.  ``numpy.linalg.inv`` is counted (not timed) the
same way, because the solver looks it up through the numpy module.

Spans are recorded only while a fit is open, so scoring and set-up outside
the fits leave no trace.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("tensor", "kruskal", "hessian", "solver")

# Span fields, by index into a span record.
NAME, START, END, PARENT, FIT = range(5)


def _cpfast_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "cpfast" or name.startswith("cpfast.")
    ]


def _mttkrp_flops(y, model, n) -> float:
    """Computed flops of the unfolding-times-Khatri-Rao matmul (2JR, x4 complex)."""
    per_mac = 8 if np.iscomplexobj(y.data) else 2
    return float(per_mac * y.size * model.rank)


class Tracer:
    """Records spans (name, start, end, parent, fit id) and call counts."""

    def __init__(self):
        self.spans = []
        self.fit_variant = {}
        self.calls = Counter()  # (variant, function name) -> calls
        self.extra = Counter()  # (variant, counter name) -> total
        self._stack = []
        self._fit = None
        self._patched = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def fit(self, fit_id: int, variant: str):
        """Open the root span of one fit; nested calls become its children."""
        self.fit_variant[fit_id] = variant
        self._fit = fit_id
        span = ["fit", perf_counter(), 0.0, -1, fit_id]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            self._fit = None

    def _wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._fit is None:
                return fn(*args, **kwargs)
            variant = self.fit_variant[self._fit]
            self.calls[(variant, name)] += 1
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    counts = note(**bound.arguments)
                except TypeError:
                    # The function's parameters changed: drop the counter,
                    # never the fit.
                    counts = {}
                for key, value in counts.items():
                    self.extra[(variant, key)] += value
            span = [name, 0.0, 0.0, stack[-1], self._fit]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._fit is not None:
                self.calls[(self.fit_variant[self._fit], name)] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _rebind(self, original, replacement, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every public function of the traced layers, wherever bound."""
        modules = _cpfast_modules()
        notes = {
            "kruskal.mttkrp": lambda y, model, n: {
                "mttkrp_flops": _mttkrp_flops(y, model, n)
            },
            "hessian.b_matrix": lambda cache, mu, use_kernel_inverse: {
                "b_matrix_kinv": int(bool(use_kernel_inverse))
            },
        }
        for layer in LAYERS:
            mod = sys.modules[f"cpfast.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                self._rebind(fn, self._wrap(name, fn, notes.get(name)), modules)
        inv = np.linalg.inv
        self._rebind(inv, self._count("numpy.linalg.inv", inv), [np.linalg])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per (variant, span name): duration minus direct children.

        Children of one span never overlap (calls nest), so the time they
        cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out = defaultdict(float)
        for i, span in enumerate(self.spans):
            variant = self.fit_variant[span[FIT]]
            out[(variant, span[NAME])] += span[END] - span[START] - child[i]
        return dict(out)

    def fit_seconds(self, variant: str) -> float:
        return sum(
            s[END] - s[START]
            for s in self.spans
            if s[NAME] == "fit" and self.fit_variant[s[FIT]] == variant
        )

    def write(self, path) -> None:
        """Write all spans as gzipped JSON lines: a header, then one per span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        # Level 1: a traced swamp-small pass writes ~2M spans, and level 9
        # would add tens of seconds to the run.
        with gzip.open(path, "wt", compresslevel=1) as out:
            header = {
                "fields": ["name", "start_s", "end_s", "parent", "fit"],
                "fit_variant": self.fit_variant,
            }
            out.write(json.dumps(header) + "\n")
            for s in self.spans:
                out.write(
                    json.dumps(
                        [s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[FIT]]
                    )
                    + "\n"
                )

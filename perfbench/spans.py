"""In-memory span tracer for the benchmark.

A span is (id, name, parent id, start, end); the name's prefix before the
first dot is the layer (`mesh.build_uniform` belongs to `mesh`).  Calls too
frequent to keep one span each (problem callbacks, single-point `locate`) are
"hot": they add their count and time to a per-root aggregate and to the open
span's child time, so self times still partition the root span.

`NullTracer` has the same interface and does nothing, so the timed path of an
untraced run is the traced path minus the bookkeeping.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager

import monohjb.bellman
import monohjb.feedback
import monohjb.solver


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def root(self, name):
        yield None

    def instrument(self, spec):
        return spec

    @contextmanager
    def patched(self):
        yield


class Tracer:
    def __init__(self):
        self.spans = []      # [id, name, parent, start, end, hot_child_seconds]
        self.hot = {}        # (root id, name) -> [calls, seconds]
        self._stack = []

    def _open(self, name):
        rec = [len(self.spans), name, self._stack[-1][0] if self._stack else None,
               time.perf_counter(), None, 0.0]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    @contextmanager
    def root(self, name):
        rec = self._open(name)
        try:
            yield rec[0]
        finally:
            self._close(rec)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def wrap_hot(self, name, fn):
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack[-1][5] += dt
                agg = self.hot.setdefault((self._stack[0][0], name), [0, 0.0])
                agg[0] += 1
                agg[1] += dt
        return counted

    def instrument(self, spec):
        """The spec with counting, timing wrappers around its callables."""
        return dataclasses.replace(
            spec,
            dynamics=self.wrap_hot("problem.dynamics", spec.dynamics),
            cost=self.wrap_hot("problem.cost", spec.cost),
        )

    @contextmanager
    def patched(self):
        """Trace the calls one layer makes into another inside the library.

        Rebinds the names the calling module looked up at import, so only
        calls from that module are traced; restored on exit.
        """
        targets = [
            (monohjb.solver, "apply", "bellman.apply", False),
            (monohjb.solver, "apply_policy", "bellman.apply_policy", False),
            (monohjb.solver, "sup_norm_diff", "fespace.sup_norm_diff", False),
            (monohjb.bellman, "apply", "bellman.apply", False),
            (monohjb.bellman, "locate_many", "mesh.locate_many", False),
            (monohjb.feedback, "locate", "mesh.locate", True),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for mod, attr, name, hot in targets:
                fn = getattr(mod, attr)
                setattr(mod, attr, self.wrap_hot(name, fn) if hot else self.wrap(name, fn))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def tree(self, root_id):
        """Per-name inclusive seconds and calls, and per-layer self seconds,
        over the spans under one root (the root's own self time is layer
        `bench`)."""
        children = {}
        for rec in self.spans:
            if rec[2] is not None:
                children.setdefault(rec[2], []).append(rec)
        inclusive, calls, self_s = {}, {}, {}

        def visit(rec):
            dur = rec[4] - rec[3]
            kids = children.get(rec[0], [])
            own = dur - rec[5] - sum(k[4] - k[3] for k in kids)
            layer = "bench" if rec[0] == root_id else rec[1].split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + own
            inclusive[rec[1]] = inclusive.get(rec[1], 0.0) + dur
            calls[rec[1]] = calls.get(rec[1], 0) + 1
            for k in kids:
                visit(k)

        visit(self.spans[root_id])
        for (rid, name), (n, secs) in self.hot.items():
            if rid == root_id:
                layer = name.split(".", 1)[0]
                self_s[layer] = self_s.get(layer, 0.0) + secs
                inclusive[name] = inclusive.get(name, 0.0) + secs
                calls[name] = calls.get(name, 0) + n
        return inclusive, calls, self_s

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({
                "fields": ["id", "name", "parent", "start", "end", "hot_child_s"],
                "spans": self.spans,
                "hot": [[rid, name, n, secs] for (rid, name), (n, secs) in self.hot.items()],
            }, f)

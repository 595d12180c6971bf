"""Span tracing installed from outside the package, for the traced run only.

Wrappers replace functions at the names their callers look them up by
(module globals such as ``edlkit.witness.solve_sdp``), so calls made inside
the package are seen as well as calls made by the benchmark.  Each wrapped
call records a span ``(name, start, end, parent, case)`` in memory; hot
helpers are only counted.  Self time of a span is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import time

# (label, module attribute owners, attribute name, mode).  A function
# imported by name into another module is patched in every listed owner.
# "span" records a timed span, "count" only counts calls.
TARGETS = [
    ("symmetric.edl_diagonal", ["symmetric"], "edl_diagonal", "span"),
    ("symmetric.edl_symmetric", ["symmetric"], "edl_symmetric", "span"),
    ("symmetric.sdl_diagonal", ["symmetric"], "sdl_diagonal", "span"),
    ("symmetric.is_ppt_diagonal", ["symmetric"], "is_ppt_diagonal", "span"),
    ("simplex.simplex_max", ["symmetric", "_simplex"], "simplex_max", "span"),
    ("hypergraph.min_marginal_count", ["hypergraph"], "min_marginal_count", "span"),
    ("hypergraph.all_k_subsets", ["hypergraph", "witness"], "all_k_subsets", "span"),
    ("hypergraph.transitivity_certificate", ["hypergraph"], "transitivity_certificate", "span"),
    ("qcore.partial_trace", ["qcore"], "partial_trace", "span"),
    ("qcore.partial_transpose", ["qcore"], "partial_transpose", "span"),
    ("qcore.pauli_string", ["qcore"], "pauli_string", "span"),
    ("witness.edl_upper_bound", ["witness"], "edl_upper_bound", "span"),
    ("witness.fully_decomposable_alpha", ["witness"], "fully_decomposable_alpha", "span"),
    ("witness.verify_witness", ["witness"], "verify_witness", "span"),
    ("witness.solve_sdp", ["witness"], "solve_sdp", "span"),
    ("witness.sdl_pure", ["witness"], "sdl_pure", "span"),
    ("witness.pure_determination_alpha", ["witness"], "pure_determination_alpha", "span"),
    ("witness.refit_certificates", ["witness"], "refit_certificates", "span"),
    ("witness.symmetric_sdl_probe", ["witness"], "symmetric_sdl_probe", "span"),
    ("witness.svec", ["witness"], "svec", "count"),
    ("witness.smat", ["witness"], "smat", "count"),
    ("graphstate.graph_bounds", ["graphstate"], "graph_bounds", "span"),
    ("graphstate.lc_orbit_min_max_degree", ["graphstate"], "lc_orbit_min_max_degree", "span"),
    ("graphstate.local_complement", ["graphstate"], "local_complement", "count"),
    ("graphstate.uniformity_level", ["graphstate"], "uniformity_level", "span"),
    ("cli.main", ["cli"], "main", "span"),
]


class Tracer:
    """Records spans and call counts while installed; restores on uninstall."""

    def __init__(self, modules):
        self.modules = modules          # short name -> module object
        self.spans = []                 # [name, start, end, parent index, case]
        self.counts = {}
        self.results = []               # (label, return value) of calls whose results are read
        self.case = None
        self._stack = []
        self._saved = []

    def _span_wrapper(self, label, fn):
        def wrapped(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [label, time.perf_counter(), None, parent, self.case]
            self.spans.append(record)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
            if label in ("witness.solve_sdp", "witness.pure_determination_alpha",
                         "graphstate.lc_orbit_min_max_degree", "symmetric.sdl_diagonal"):
                self.results.append((label, out))
            return out
        wrapped.__wrapped__ = fn
        return wrapped

    def _count_wrapper(self, label, fn):
        counts = self.counts
        counts.setdefault(label, 0)

        def wrapped(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self):
        for label, owners, attr, mode in TARGETS:
            original = getattr(self.modules[owners[0]], attr)
            make = self._span_wrapper if mode == "span" else self._count_wrapper
            wrapper = make(label, original)
            for owner in owners:
                mod = self.modules[owner]
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def summary(self):
        """Per label: calls, total time and self time, all in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _case in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _parent, _case) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "busy_s": 0.0, "self": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["busy_s"] += end - start - child_time[i]
            entry["self"].append(end - start - child_time[i])
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": self.spans, "counts": self.counts}, fh)

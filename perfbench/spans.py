"""Span tracing at layer boundaries, installed from outside the package.

Each boundary is a module (or class) attribute that one layer calls through;
the tracer swaps it for a wrapper that records a span and restores the
original afterwards.  Engine boundaries are reached through the names
``montecarlo`` imports (``montecarlo._hunt_same_sign_cell`` and so on), so a
rename or removal fails the traced pass by name instead of reading as zero.

Spans live in flat in-memory arrays (name, start, end, parent, run) and are
written out once, at the end.  ``run`` is the index of the benchmark call the
span belongs to, or -1 for set-up.
"""

from array import array
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np


class BoundaryError(RuntimeError):
    """A traced boundary is missing from the package, or was never reached."""


@dataclass(frozen=True)
class Boundary:
    name: str
    sites: tuple          # ((owner, attribute), ...): every call site patched
    expected: frozenset   # workloads on which the traced loop must reach it
    nested: bool = True   # False: calls inside an open span of the same name are not spans


def boundaries(mc, roots, basis, gaussian_theory, edgeworth):
    """The layer boundaries, keyed to the workloads that must reach them."""
    expect, ball, analyze = "expect-n1600", "smallball-n400", "analyze-n400"
    b = Boundary
    return [
        b("dists.trial_stream", ((mc, "trial_stream"),), frozenset({expect, ball})),
        b("dists.from_uniforms", ((mc, "_from_uniforms"),), frozenset({expect, ball})),
        b("basis.evaluate_at", ((roots, "evaluate_at"),), frozenset({expect, analyze})),
        b("basis.support_window", ((basis, "support_window"), (mc, "support_window")),
          frozenset({expect, ball, analyze})),
        b("roots.GridKernel.build", ((roots.GridKernel, "__init__"),), frozenset({expect})),
        b("roots.GridKernel.values", ((roots.GridKernel, "values"),),
          frozenset({expect, analyze})),
        b("roots.suspicious_cells", ((mc, "_suspicious_cells"), (roots, "_suspicious_cells")),
          frozenset({expect, analyze})),
        b("roots.hunt", ((mc, "_hunt_same_sign_cell"), (roots, "_hunt_same_sign_cell")),
          frozenset({expect}), nested=False),
        b("roots.refine", ((mc, "_refined_metric_min"), (roots, "_refined_metric_min")),
          frozenset({expect})),
        b("roots.count_sign_changes", ((roots, "count_sign_changes"),), frozenset({analyze})),
        b("roots.validity_check", ((roots, "validity_check"),), frozenset({analyze})),
        b("roots.kac_rice_count", ((roots, "kac_rice_count"),), frozenset({analyze})),
        b("montecarlo.count_chunk", ((mc._TrialEngine, "count_chunk"),), frozenset({expect})),
        b("montecarlo.point_values", ((mc, "_point_values"),), frozenset({ball})),
        b("montecarlo.run_engine", ((mc, "_run_engine"),), frozenset({expect})),
        b("gaussian_theory.expected_count_gaussian",
          ((gaussian_theory, "expected_count_gaussian"),), frozenset({expect})),
        b("gaussian_theory.variance_constant_weyl",
          ((gaussian_theory, "variance_constant_weyl"),), frozenset()),
        b("edgeworth.correction_constant", ((edgeworth, "correction_constant"),),
          frozenset({expect})),
    ]


def _site_name(owner, attr):
    return f"{getattr(owner, '__name__', owner)}.{attr}"


class Tracer:
    """Records spans and counters; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run_id = array("q")
        self._stack = []
        self.run = -1
        self.counters = {}
        self.first = {}          # boundary name -> (args, kwargs, result) of its first call
        self._saved = []

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span recorded by the benchmark itself."""
        return self._wrap(name, fn, None, True)(*args, **kwargs)

    def _wrap(self, name, fn, after, nested):
        nid = self._nid(name)
        stack, name_id, end, first = self._stack, self.name_id, self.end, self.first
        push_name, push_parent = name_id.append, self.parent.append
        push_run, push_end, push_start = self.run_id.append, end.append, self.start.append

        def traced(*args, **kwargs):
            if not nested and stack and name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(name_id)
            push_name(nid)
            push_parent(stack[-1] if stack else -1)
            push_run(self.run)
            push_end(0)
            stack.append(idx)
            push_start(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if name not in first:
                first[name] = (args, kwargs, out)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, bounds, after=None):
        """Patch every site of every boundary; a missing site raises by name."""
        after = after or {}
        missing = [_site_name(o, a) for bd in bounds for o, a in bd.sites if not hasattr(o, a)]
        if missing:
            raise BoundaryError("traced boundary missing from the package: " + ", ".join(missing))
        for bd in bounds:
            for owner, attr in bd.sites:
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(bd.name, fn, after.get(bd.name), bd.nested))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def table(self, runs_from=0):
        """Per-name calls, inclusive and self seconds over spans with run >= runs_from."""
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        par = np.frombuffer(self.parent, dtype=np.int64)
        run = np.frombuffer(self.run_id, dtype=np.int64)
        child = np.zeros(dur.size)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        own = dur - child
        keep = run >= runs_from
        out = {}
        for i, name in enumerate(self.names):
            sel = keep & (nid == i)
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
                "median_s": float(np.median(dur[nid == i])) if (nid == i).any() else 0.0,
            }
        return out

    def save(self, path, meta):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_id, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run_id, dtype=np.int64),
            meta=np.array(repr(meta)),
        )


def unreached(bounds, tracer, workload):
    """Names of boundaries expected on `workload` that recorded no span."""
    counts = tracer.table()
    return [bd.name for bd in bounds
            if workload in bd.expected and counts.get(bd.name, {}).get("calls", 0) == 0]

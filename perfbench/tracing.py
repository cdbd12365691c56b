"""Span recording for the traced benchmark run, from outside the program.

The public functions of each layer are wrapped where their callers look
them up (``criteria.volume_ratio``, not ``core.volume_ratio``, because
``criteria`` imported the name), so nothing under ``src/`` changes.  Each
wrapped call records a span: name, start, end and the enclosing span.
Self time is a span's duration minus the time its child spans cover.  The
hot leaves -- integrand evaluations inside ``quad`` and the scalar
``phi^-1`` -- are counted, not spanned, to keep the tracing cost small.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from modelpot import cli, core, criteria, obstacle, radial

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self._names = []
        self._ids = {}
        self.counts = defaultdict(int)
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")   # inside a span of the same name
        self.failed = array("b")
        self._stack = []
        self._depth = defaultdict(int)
        self.counts.clear()   # cleared in place: the leaf wrappers hold it

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span named ``name``;
        ``after(tracer, args, result)`` may add counts once it returns."""
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.nested.append(self._depth[nid] > 0)
            self.failed.append(1)
            self.end.append(0.0)
            self._stack.append(i)
            self._depth[nid] += 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                self.failed[i] = 0
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
                self._depth[nid] -= 1
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def timed_leaf(self, name, fn):
        """Count calls and total time of a hot leaf without spans."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name + ".s"] += perf_counter() - t0
                counts[name + ".calls"] += 1

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(x):
            counts[name] += 1
            return fn(x)

        return wrapper

    # -----------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name ``calls``, ``s`` (time not nested in the same name),
        ``self_s`` and ``failed``, plus the counters, for the spans
        recorded since the last reset."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        failed = np.frombuffer(self.failed, dtype=np.int8)
        child = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        own = dur - child
        out = dict(self.counts)
        out["trace.spans"] = len(dur)
        for nid, label in enumerate(self._names):
            mask = name == nid
            out[label + ".calls"] = int(mask.sum())
            out[label + ".s"] = float(dur[mask & ~nested].sum())
            out[label + ".self_s"] = float(own[mask].sum())
            out[label + ".failed"] = int(failed[mask].sum())
        return out


def _quad_span(tracer, integrate):
    """``Quadrature.integrate`` with its integrand evaluations counted."""
    counted = tracer.counted

    def wrapped(q, f, a, b, points=None):
        return integrate(q, counted("core.quad.integrand_evals", f), a, b,
                         points=points)

    return tracer.span("core.quad", wrapped)


def _count_elements(tracer, args, result):
    tracer.counts["core.phi_inverse_array.elements"] += np.size(args[1])


def _count_nodes(tracer, args, result):
    tracer.counts["obstacle.nodes_solved"] += args[0].n_nodes - 2


def _count_inconclusive(tracer, args, result):
    tracer.counts["criteria.inconclusive"] += \
        result.verdict is criteria.Verdict.INCONCLUSIVE


def _patches(tracer):
    """(owner, attribute, replacement) for every traced name."""
    span, leaf = tracer.span, tracer.timed_leaf
    return [
        (cli, "main", span("cli.main", cli.main)),
        (core.Quadrature, "integrate",
         _quad_span(tracer, core.Quadrature.integrate)),
        (criteria, "volume_ratio",
         span("core.volume_ratio", criteria.volume_ratio)),
        (criteria, "phi_inverse", leaf("core.phi_inverse",
                                       criteria.phi_inverse)),
        (criteria, "test_L1_at_infinity",
         span("criteria.test_L1_at_infinity", criteria.test_L1_at_infinity,
              _count_inconclusive)),
        (criteria, "keller_osserman",
         span("criteria.keller_osserman", criteria.keller_osserman)),
        (radial, "volterra_apply",
         span("radial.volterra_apply", radial.volterra_apply)),
        (radial, "solve_on_interval",
         span("radial.solve_on_interval", radial.solve_on_interval)),
        (radial, "solve_cauchy",
         span("radial.solve_cauchy", radial.solve_cauchy)),
        (radial, "phi_inverse_array",
         span("core.phi_inverse_array", radial.phi_inverse_array,
              _count_elements)),
        (obstacle, "solve_obstacle",
         span("obstacle.solve_obstacle", obstacle.solve_obstacle,
              _count_nodes)),
        (obstacle, "solve_dirichlet",
         span("obstacle.solve_dirichlet", obstacle.solve_dirichlet)),
        (obstacle, "make_problem",
         span("obstacle.make_problem", obstacle.make_problem)),
        (obstacle, "khasminskii_construct",
         span("obstacle.khasminskii_construct",
              obstacle.khasminskii_construct)),
        (obstacle, "is_supersolution",
         span("obstacle.is_supersolution", obstacle.is_supersolution)),
    ]


@contextmanager
def installed(tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrapper in _patches(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def calibrate(n: int = 20000) -> dict:
    """Measured cost of one span, one counted call and one timed leaf call,
    for the estimate of the tracing overhead."""
    tracer = Tracer()

    def noop(x):
        return x

    wrapped = {"span": tracer.span("calibration", noop),
               "count": tracer.counted("calibration", noop),
               "leaf": tracer.timed_leaf("calibration", noop)}
    t0 = perf_counter()
    for i in range(n):
        noop(i)
    base = perf_counter() - t0
    cost = {}
    for kind, fn in wrapped.items():
        t0 = perf_counter()
        for i in range(n):
            fn(i)
        cost[kind] = max(perf_counter() - t0 - base, 0.0) / n
    return cost

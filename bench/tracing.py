"""Spans and work counters for the traced benchmark run.

The tracer times calls into the library from outside ``src/``. It sees
three kinds of call:

* calls the benchmark makes itself, through ``Tracer.call``;
* calls the library makes through module attributes, which
  ``Tracer.traced_op`` replaces with timing wrappers for the duration of one
  op and then restores: ``varmcf.brakke.discretize``,
  ``varmcf.brakke.curvature_field`` and ``varmcf.metrics.linprog``;
* calls on objects the benchmark builds and passes in: the trajectory's
  ``sample`` method and the kernel pair's ``xi`` and ``rho.derivative``.

A span records its name, start, end, parent span and op. Spans stay in
memory and are written out when the run ends. Work counters are recorded at
the same boundaries. Counting that costs real work (neighbour pairs with a
k-d tree, the union support of two measures) is deferred until the op's
clock has stopped.
"""

from __future__ import annotations

import copy
import functools
import inspect
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy.spatial import cKDTree

import varmcf.brakke
import varmcf.metrics
from varmcf.varifold import VolumetricVarifold

# (module, attribute, span name) patched while a traced op runs.
MODULE_WRAPPERS = (
    (varmcf.brakke, "discretize", "discretization"),
    (varmcf.brakke, "curvature_field", "curvature"),
    (varmcf.metrics, "linprog", "metrics.lp_solve"),
)

# Counters that must repeat exactly for identical inputs.
EXACT_COUNTERS = (
    "curvature.pairs", "kernels.evals", "discretization.cells",
    "metrics.support_atoms", "metrics.lp_rows", "metrics.lp_cols",
    "metrics.lp_nnz",
)

# Per-layer time metrics: metric name -> span name (inclusive time).
SPAN_TIMES = {
    "geometry.sample_s": "geometry.sample",
    "flow.build_s": "flow.build",
    "discretization.s": "discretization",
    "varifold.build_s": "varifold.build",
    "curvature.s": "curvature",
    "kernels.s": "kernels",
    "brakke.s": "brakke",
    "metrics.atomize_s": "metrics.atomize",
    "metrics.bl_s": "metrics.bl",
    "metrics.lp_solve_s": "metrics.lp_solve",
}

COUNTERS = (
    "geometry.points", "discretization.samples", "discretization.cells",
    "varifold.atoms", "curvature.calls", "curvature.probes",
    "curvature.atoms", "curvature.pairs", "curvature.failed_probes",
    "kernels.evals", "brakke.snapshots", "brakke.failed_nodes",
    "metrics.support_atoms", "metrics.lp_rows", "metrics.lp_cols",
    "metrics.lp_nnz", "metrics.lp_iterations",
)


class NullTracer:
    """Calls straight through: the untraced run."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pair(self, pair):
        return pair

    def instrument_trajectory(self, trajectory):
        pass


NULL_TRACER = NullTracer()


def count_pairs(points, atoms, radius):
    """Probe-atom pairs at distance <= radius, counted with k-d trees."""
    return int(cKDTree(points).count_neighbors(cKDTree(atoms), radius))


def expanded_atoms(varifold, epsilon):
    """Atom positions the curvature sums run over.

    A volumetric varifold is expanded into subcell nodes with
    s = max(2, subdivisions, ceil(4 h / eps)) per axis, the documented rule
    that keeps subcells below eps / 4. The count is therefore computed by
    the benchmark from that rule, not read from the library.
    """
    if isinstance(varifold, VolumetricVarifold):
        s = max(2, varifold.subdivisions,
                math.ceil(4.0 * varifold.h / epsilon))
        return varifold.quadrature_points(s)[0]
    return varifold.positions


def _bound_arguments(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _after_sample(tracer, fn, args, kwargs, sample):
    tracer.add("geometry.points", len(sample.positions))


def _after_discretize(tracer, fn, args, kwargs, vol):
    sample = _bound_arguments(fn, args, kwargs)["sample"]
    tracer.add("discretization.samples", len(sample.positions))
    tracer.add("discretization.cells", len(vol))


def _after_varifold(tracer, fn, args, kwargs, varifold):
    tracer.add("varifold.atoms", len(varifold))


def _after_curvature(tracer, fn, args, kwargs, field):
    bound = _bound_arguments(fn, args, kwargs)
    varifold, query = bound["varifold"], bound["query"]
    tracer.add("curvature.calls", 1)
    tracer.add("curvature.probes", len(field))
    tracer.add("curvature.failed_probes", field.n_failures)
    tracer.lower("curvature.min_den_over_floor",
                 float(np.min(field.denominators)) / query.floor)

    def count():
        atoms = expanded_atoms(varifold, query.epsilon)
        tracer.add("curvature.atoms", len(atoms))
        tracer.add("curvature.pairs",
                   count_pairs(field.points, atoms, query.epsilon))

    tracer.defer(count)


def _after_brakke(tracer, fn, args, kwargs, report):
    tracer.add("brakke.snapshots", len(report.times))
    tracer.add("brakke.failed_nodes", report.failed_nodes)


def _after_bl(tracer, fn, args, kwargs, distance):
    bound = _bound_arguments(fn, args, kwargs)
    mu, nu = bound["mu"], bound["nu"]

    def count():
        union = np.vstack([mu.positions, nu.positions])
        tracer.add("metrics.support_atoms", len(np.unique(union, axis=0)))

    tracer.defer(count)


def _nnz(matrix):
    if matrix is None:
        return 0
    if hasattr(matrix, "nnz"):
        return int(matrix.nnz)
    return int(np.count_nonzero(matrix))


def _after_linprog(tracer, fn, args, kwargs, result):
    bound = _bound_arguments(fn, args, kwargs)
    rows = sum(np.shape(bound[key])[0] for key in ("A_ub", "A_eq")
               if bound.get(key) is not None)
    tracer.add("metrics.lp_rows", rows)
    tracer.add("metrics.lp_cols", len(bound["c"]))
    tracer.add("metrics.lp_nnz",
               _nnz(bound.get("A_ub")) + _nnz(bound.get("A_eq")))
    tracer.add("metrics.lp_iterations", int(result.nit))


def _after_xi(tracer, fn, args, kwargs, values):
    # One evaluation is one radius; rho.derivative sees the same radii.
    tracer.add("kernels.evals", int(np.size(args[0])))


HOOKS = {
    "geometry.sample": _after_sample,
    "discretization": _after_discretize,
    "varifold.build": _after_varifold,
    "curvature": _after_curvature,
    "brakke": _after_brakke,
    "metrics.bl": _after_bl,
    "metrics.lp_solve": _after_linprog,
}


class _TracedProfile:
    """A kernel profile whose value (optionally) and derivative are timed."""

    def __init__(self, tracer, profile, count_values):
        self._tracer = tracer
        self._profile = profile
        self._hook = _after_xi if count_values else None

    def __call__(self, r):
        return self._tracer.run("kernels", self._hook, self._profile, (r,), {})

    def derivative(self, r):
        return self._tracer.run("kernels", None, self._profile.derivative,
                                (r,), {})

    def __getattr__(self, name):
        return getattr(self._profile, name)


class Tracer:
    """Records spans and counters for the ops it is told to trace."""

    def __init__(self):
        # span: [op, name, start, end, parent index]
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []
        self._deferred = []
        self._instrumented = []

    def run(self, name, hook, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [self.op, name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            hook(self, fn, args, kwargs, result)
        return result

    def call(self, name, fn, *args, **kwargs):
        return self.run(name, HOOKS.get(name), fn, args, kwargs)

    def add(self, counter, amount):
        ops = self.counters[self.op]
        ops[counter] = ops.get(counter, 0) + amount

    def lower(self, counter, value):
        ops = self.counters[self.op]
        ops[counter] = min(ops.get(counter, math.inf), value)

    def defer(self, fn):
        self._deferred.append(fn)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def pair(self, pair):
        """A copy of the kernel pair whose profiles record kernel spans."""
        traced = copy.copy(pair)
        traced.xi = _TracedProfile(self, pair.xi, count_values=True)
        traced.rho = _TracedProfile(self, pair.rho, count_values=False)
        return traced

    def instrument_trajectory(self, trajectory):
        trajectory.sample = self.wrap("geometry.sample", trajectory.sample)
        self._instrumented.append(trajectory)

    @contextmanager
    def traced_op(self, op):
        """Trace one op: patch the module attributes, restore them after.

        Deferred counting runs after the wrappers are removed, outside any
        clock the caller holds inside this block.
        """
        self.op = op
        self.counters[op] = {}
        self._deferred = []
        saved = []
        try:
            for module, attr, name in MODULE_WRAPPERS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            for trajectory in self._instrumented:
                del trajectory.sample
            self._instrumented.clear()
            self._stack.clear()
            deferred, self._deferred = self._deferred, []
        for fn in deferred:
            fn()

    def op_times(self, op):
        """Seconds per time metric of one op, plus brakke self time."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[0] == op]
        children = {}
        for i, s in spans:
            children.setdefault(s[4], []).append((s[2], s[3]))
        times = dict.fromkeys(SPAN_TIMES, 0.0)
        by_span = {span: metric for metric, span in SPAN_TIMES.items()}
        times["brakke.self_s"] = 0.0
        for i, (_, name, start, end, _) in spans:
            times[by_span[name]] += end - start
            if name == "brakke":
                times["brakke.self_s"] += (
                    end - start - _covered(children.get(i, []), start, end)
                )
        return times


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(tracer, ops):
    """Per-layer metrics of the traced ops, and the counters that differed.

    Times are medians over ops. Counters are one op's values; the names in
    ``EXACT_COUNTERS`` that differ between ops are returned so the caller
    can fail the run. Ratios are computed from the reported values, so each
    can be recomputed from its base.
    """
    per_op = [tracer.op_times(op) for op in ops]
    metrics = {key: statistics.median(t[key] for t in per_op)
               for key in per_op[0]}
    metrics["metrics.lp_build_s"] = statistics.median(
        t["metrics.bl_s"] - t["metrics.lp_solve_s"] for t in per_op
    )
    first = tracer.counters[ops[0]]
    for name in COUNTERS:
        metrics[name] = first.get(name, 0)
    min_den = first.get("curvature.min_den_over_floor", math.inf)
    metrics["curvature.min_den_over_floor"] = (
        min_den if math.isfinite(min_den) else 0.0
    )
    metrics["discretization.samples_per_s"] = _ratio(
        metrics["discretization.samples"], metrics["discretization.s"])
    metrics["curvature.pairs_per_s"] = _ratio(
        metrics["curvature.pairs"], metrics["curvature.s"])
    metrics["curvature.pair_hit_ratio"] = _ratio(
        metrics["curvature.pairs"], metrics["kernels.evals"])
    differing = sorted(
        name for name in EXACT_COUNTERS
        if any(tracer.counters[op].get(name, 0) != first.get(name, 0)
               for op in ops)
    )
    return metrics, differing


def _ratio(numerator, denominator):
    """numerator / denominator, or 0 when the layer did no work."""
    return numerator / denominator if denominator else 0.0

"""Mean curvature flow trajectories: exact shrinkers and a polyline flow.

A round circle or sphere of initial radius r0 flowing by mean curvature
stays round with radius r(t) = sqrt(r0^2 - 2 d t), vanishing at
t = r0^2 / (2 d). These exact trajectories drive the space-time residual
checks. The polyline flow is an explicit Euler scheme for curve shortening
in the plane; it is compared only with the circle's radius law, in one test
and one demo.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .geometry import Circle, Sphere, WeightedSample

__all__ = [
    "ShrinkingCircle",
    "ShrinkingSphere",
    "FlowTrajectory",
    "SelfIntersectionError",
    "polyline_curvature",
    "polyline_length",
    "polyline_to_sample",
    "resample_polyline",
    "self_intersects",
    "max_stable_step",
    "curve_shortening_step",
    "run_curve_shortening",
    "write_polyline_csv",
]


# Segment pairs held at once by self_intersects.
_SEGMENT_BLOCK = 65_536


class _Shrinker:
    """Round shape flowing by mean curvature: r(t)^2 = r0^2 - 2 d t."""

    d = None

    def __init__(self, radius, center=None):
        radius = float(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.initial_radius = radius
        self.center = center

    @property
    def extinction_time(self):
        return self.initial_radius**2 / (2.0 * self.d)

    def radius_at(self, t):
        t = float(t)
        if t < 0:
            raise ValueError("time must be nonnegative")
        sq = self.initial_radius**2 - 2.0 * self.d * t
        if sq <= 0:
            raise ValueError(
                f"flow is extinct at t = {self.extinction_time:g}; "
                f"requested t = {t:g}"
            )
        return math.sqrt(sq)

    def shape_at(self, t):
        return self._make(self.radius_at(t))

    def trajectory(self, t_start, t_end, panels, resolution):
        return FlowTrajectory(self, t_start, t_end, panels, resolution)


class ShrinkingCircle(_Shrinker):
    d = 1

    def _make(self, r):
        if self.center is None:
            return Circle(r)
        return Circle(r, self.center)


class ShrinkingSphere(_Shrinker):
    d = 2

    def _make(self, r):
        if self.center is None:
            return Sphere(r)
        return Sphere(r, self.center)


class FlowTrajectory:
    """Uniform-in-time snapshots of a flow on [t_start, t_end].

    ``panels`` is the number of time subintervals; there are panels + 1
    snapshot times. Samples are generated lazily at a fixed resolution and
    cached by check-then-set without a lock: threads that miss together
    each compute the same deterministic sample and one is kept, so a race
    can only repeat work. The exact masses must be non-increasing in time,
    as mean curvature flow demands.
    """

    def __init__(self, flow, t_start, t_end, panels, resolution):
        t_start, t_end = float(t_start), float(t_end)
        panels = int(panels)
        if not 0.0 <= t_start < t_end:
            raise ValueError("need 0 <= t_start < t_end")
        if panels < 1:
            raise ValueError("panels must be >= 1")
        # raises if the flow dies inside the window
        flow.shape_at(t_end)
        self.flow = flow
        self.times = np.linspace(t_start, t_end, panels + 1)
        self.times.flags.writeable = False
        self.resolution = int(resolution)
        self.masses = np.array(
            [flow.shape_at(t).total_measure() for t in self.times]
        )
        self.masses.flags.writeable = False
        if np.any(np.diff(self.masses) > 1e-12 * self.masses[0]):
            raise ValueError("mass must be non-increasing along the flow")
        self._samples = {}

    @property
    def panels(self):
        return len(self.times) - 1

    def __len__(self):
        return len(self.times)

    def shape(self, i):
        return self.flow.shape_at(self.times[i])

    def sample(self, i):
        i = int(i)
        if i not in self._samples:
            self._samples[i] = self.shape(i).sample(self.resolution)
        return self._samples[i]

    def exact_mass(self, i):
        return float(self.masses[i])

    def bounding_box(self, margin=0.0):
        """Box containing every snapshot, inflated by ``margin``."""
        lo, hi = self.shape(0).bounding_box(margin)
        for i in range(1, len(self.times)):
            slo, shi = self.shape(i).bounding_box(margin)
            lo = np.minimum(lo, slo)
            hi = np.maximum(hi, shi)
        return lo, hi


class SelfIntersectionError(RuntimeError):
    """The evolving polyline crossed itself."""


def _segments(vertices):
    return vertices, np.roll(vertices, -1, axis=0)


def polyline_length(vertices):
    p, q = _segments(np.asarray(vertices, dtype=float))
    return float(np.sum(np.linalg.norm(q - p, axis=1)))


def polyline_curvature(vertices):
    """Discrete curvature vectors of a closed polyline.

    K_i = 2 (u_fwd - u_back) / (a + b) with unit edge directions and edge
    lengths a, b; on a regular polygon this is exactly the inward normal
    over the circumradius.
    """
    v = np.asarray(vertices, dtype=float)
    fwd = np.roll(v, -1, axis=0) - v
    back = v - np.roll(v, 1, axis=0)
    a = np.linalg.norm(fwd, axis=1)
    b = np.linalg.norm(back, axis=1)
    if np.any(a == 0):
        raise ValueError("polyline has a repeated vertex")
    u_fwd = fwd / a[:, None]
    u_back = back / b[:, None]
    return 2.0 * (u_fwd - u_back) / (a + b)[:, None]


def polyline_to_sample(vertices):
    """Weighted sample of a closed polyline: vertex atoms, edge-split weights."""
    v = np.asarray(vertices, dtype=float)
    fwd = np.roll(v, -1, axis=0) - v
    back = v - np.roll(v, 1, axis=0)
    a = np.linalg.norm(fwd, axis=1)
    b = np.linalg.norm(back, axis=1)
    chord = np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)
    t = chord / np.linalg.norm(chord, axis=1)[:, None]
    proj = t[:, :, None] * t[:, None, :]
    return WeightedSample(v, proj, 0.5 * (a + b), 1)


def resample_polyline(vertices, count=None):
    """Redistribute vertices uniformly by arc length along the polyline."""
    v = np.asarray(vertices, dtype=float)
    count = len(v) if count is None else int(count)
    closed = np.vstack([v, v[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    targets = np.arange(count) * (total / count)
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / seg[idx]
    return closed[idx] + frac[:, None] * (closed[idx + 1] - closed[idx])


def _orientations(a, b, c):
    """Cross products (b - a) x (c - a): segments (a, b) by points c."""
    return (
        (b[:, None, 0] - a[:, None, 0]) * (c[None, :, 1] - a[:, None, 1])
        - (b[:, None, 1] - a[:, None, 1]) * (c[None, :, 0] - a[:, None, 0])
    )


def self_intersects(vertices):
    """Proper-crossing test between all non-adjacent segment pairs.

    Segments i and j cross properly when the ends of each lie strictly on
    opposite sides of the other. The pairs are scanned in blocks of whole
    rows of about ``_SEGMENT_BLOCK`` pairs, so memory stays bounded for any
    vertex count.
    """
    v = np.asarray(vertices, dtype=float)
    p, q = _segments(v)
    m = len(v)
    j = np.arange(m)
    step = max(1, _SEGMENT_BLOCK // m)
    for a in range(0, m, step):
        b = min(a + step, m)
        pb, qb = p[a:b], q[a:b]
        # [i, j]: ends of segment j against segment i, then the reverse
        ends_j = _orientations(pb, qb, p) * _orientations(pb, qb, q)
        ends_i = (_orientations(p, q, pb) * _orientations(p, q, qb)).T
        i = np.arange(a, b)
        adjacent = (np.abs(i[:, None] - j[None, :]) % (m - 1)) <= 1
        if np.any((ends_j < 0) & (ends_i < 0) & ~adjacent):
            return True
    return False


def max_stable_step(vertices):
    seg = np.roll(vertices, -1, axis=0) - vertices
    min_len = float(np.min(np.linalg.norm(seg, axis=1)))
    return 0.25 * min_len**2


def curve_shortening_step(vertices, dt):
    """One explicit Euler step of curve shortening flow.

    ``dt`` must respect the parabolic stability bound 0.25 * (shortest
    segment length)^2.
    """
    v = np.asarray(vertices, dtype=float)
    limit = max_stable_step(v)
    if dt > limit:
        raise ValueError(
            f"dt = {dt:g} exceeds the stability bound {limit:g}"
        )
    return v + dt * polyline_curvature(v)


def run_curve_shortening(vertices, duration, dt=None, resample_every=10,
                         check_every=16, record_every=1):
    """Flow a closed polyline for ``duration``; returns (times, polylines).

    Vertices are redistributed by arc length every ``resample_every`` steps
    and the curve is checked for self-crossings every ``check_every`` steps
    (a crossing raises :class:`SelfIntersectionError`). The step size is
    recomputed after each resampling unless fixed via ``dt``.
    """
    v = np.asarray(vertices, dtype=float)
    duration = float(duration)
    if duration <= 0:
        raise ValueError("duration must be positive")
    t = 0.0
    step = 0
    times = [0.0]
    history = [v.copy()]
    while t < duration - 1e-15:
        current_dt = max_stable_step(v) if dt is None else float(dt)
        current_dt = min(current_dt, duration - t)
        v = curve_shortening_step(v, current_dt)
        t += current_dt
        step += 1
        if step % resample_every == 0:
            v = resample_polyline(v)
        if step % check_every == 0 and self_intersects(v):
            raise SelfIntersectionError(
                f"polyline self-intersects at t = {t:g}"
            )
        if step % record_every == 0 or t >= duration - 1e-15:
            times.append(t)
            history.append(v.copy())
    return np.asarray(times), history


def write_polyline_csv(times, history, path):
    """Long-format vertex table: time, vertex index, coordinates."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "vertex", "x", "y"])
        for t, poly in zip(times, history):
            for k, (x, y) in enumerate(poly):
                writer.writerow([f"{t:.17g}", str(k), f"{x:.17g}", f"{y:.17g}"])

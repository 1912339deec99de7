"""Mean curvature flow trajectories with exact geometry.

A round circle or sphere of initial radius r0 flowing by mean curvature
stays round with radius r(t) = sqrt(r0^2 - 2 d t), vanishing at
t = r0^2 / (2 d). The Angenent oval {cos x = e^t cosh y}, t < 0, is the
one other compact convex ancient solution of curve shortening
(Daskalopoulos, Hamilton and Sesum, J. Differential Geom. 2010); it is not
round, and it shrinks to a point at t = 0. These exact trajectories drive
the space-time residual checks.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import AngenentOval, Circle, Sphere, _center

__all__ = [
    "ShrinkingCircle",
    "ShrinkingSphere",
    "AngenentOvalFlow",
    "FlowTrajectory",
]


class _Flow:
    """An exact flow: ``shape_at(t)`` for t in its lifetime."""

    def trajectory(self, t_start, t_end, panels, resolution):
        return FlowTrajectory(self, t_start, t_end, panels, resolution)


class _Shrinker(_Flow):
    """Round shape flowing by mean curvature: r(t)^2 = r0^2 - 2 d t."""

    d = None

    def __init__(self, radius, center=None):
        radius = float(radius)
        if not 0 < radius < math.inf:
            raise ValueError("radius must be positive and finite")
        self.initial_radius = radius
        self.center = None if center is None else _center(center, self.d + 1)

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


class AngenentOvalFlow(_Flow):
    """The Angenent oval from time t0 < 0: ``shape_at(s)`` is the oval at
    t0 + s, so the flow starts at s = 0 and is extinct at s = -t0."""

    def __init__(self, t0):
        t0 = float(t0)
        if not -math.inf < t0 < 0:
            raise ValueError("t0 must be negative and finite")
        self.t0 = t0

    @property
    def extinction_time(self):
        return -self.t0

    def shape_at(self, s):
        s = float(s)
        if s >= self.extinction_time:
            raise ValueError(
                f"flow is extinct at s = {self.extinction_time:g}; "
                f"requested s = {s:g}"
            )
        return AngenentOval(self.t0 + s)


class FlowTrajectory:
    """Uniform-in-time snapshots of a flow on [t_start, t_end].

    ``panels`` is the number of time subintervals; there are panels + 1
    snapshot times. ``sample(i)`` builds snapshot i's sample at a fixed
    resolution on every call and keeps none, so a residual pass holds one
    snapshot's sample at a time. Only the parameter grid of that resolution
    (angles, their cosines and sines, quadrature nodes, and the projectors
    where they depend on the angle alone) is kept: it is built by the first
    sample and every snapshot is sampled on it. It is set by check-then-set
    without a lock, so snapshot threads that miss together each build the
    same read-only grid and one is kept, which can only repeat work. The
    exact masses must be non-increasing in time, as mean curvature flow
    demands.
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
        self._grid = None

    @property
    def panels(self):
        return len(self.times) - 1

    def __len__(self):
        return len(self.times)

    def shape(self, i):
        return self.flow.shape_at(self.times[i])

    def sample(self, i):
        shape = self.shape(int(i))
        if self._grid is None:
            self._grid = shape._grid(self.resolution)
        return shape._sample_on(self._grid)

    def bounding_box(self, margin=0.0):
        """Box containing every snapshot, inflated by ``margin``."""
        lo, hi = self.shape(0).bounding_box(margin)
        for i in range(1, len(self.times)):
            slo, shi = self.shape(i).bounding_box(margin)
            lo = np.minimum(lo, slo)
            hi = np.maximum(hi, shi)
        return lo, hi

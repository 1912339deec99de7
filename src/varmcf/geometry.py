"""Analytic closed shapes, tangent planes, and surface sampling.

Shapes know their exact geometry through four queries: mean curvature
vectors, total d-dimensional measure, a bounding box, and
``AnalyticShape.sample``, which turns a shape into a weighted point sample
with exact tangent planes as orthogonal projectors and weights that are
quadrature weights for the surface measure, using spectrally accurate
product rules on the parameter domain.
"""

from __future__ import annotations

import numpy as np

from .varifold import _no_cells, _WeightedAtoms

__all__ = [
    "WeightedSample",
    "AnalyticShape",
    "Circle",
    "Ellipse",
    "AngenentOval",
    "Sphere",
    "Torus",
    "make_shape",
]

# Tolerance of on-shape membership checks.
ON_SHAPE_TOL = 1e-8


class WeightedSample(_WeightedAtoms):
    """Point sample of a surface: positions, tangent projectors, weights.

    Weights are quadrature weights for the d-dimensional surface measure,
    so ``weights.sum()`` approximates the total measure. The sample's atoms
    carry its weights as masses, so it has the varifold integrals.
    """

    __slots__ = ("positions", "projectors", "weights", "dim")

    def __init__(self, positions, projectors, weights, dim):
        self.positions = np.ascontiguousarray(positions, dtype=float)
        self.projectors = np.ascontiguousarray(projectors, dtype=float)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        self.dim = int(dim)
        if self.positions.ndim != 2:
            raise ValueError("positions must be (N, n)")
        n = self.positions.shape[1]
        if self.projectors.shape != (len(self.positions), n, n):
            raise ValueError("projectors must be (N, n, n)")
        if self.weights.shape != (len(self.positions),):
            raise ValueError("weights must be (N,)")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        for arr in (self.positions, self.projectors, self.weights):
            arr.flags.writeable = False

    @property
    def n(self):
        return self.positions.shape[1]

    def __len__(self):
        return len(self.positions)

    def atoms(self, subdivisions=None):
        """The stored (positions, projectors, weights), without a copy."""
        _no_cells(subdivisions)
        return self.positions, self.projectors, self.weights

    total_weight = _WeightedAtoms.mass_total


class AnalyticShape:
    """Base class for closed shapes with exact differential geometry.

    Subclasses set ``d`` (intrinsic dimension) and ``n`` (ambient dimension)
    and implement the four queries: ``_mean_curvature``, ``total_measure``,
    ``_grid`` and ``_sample_on`` for ``sample``, and ``bounding_box``.
    Off-shape points are rejected with a tolerance of 1e-8.
    """

    d = None
    n = None

    def mean_curvature(self, y):
        """Mean curvature vector at on-shape points ``y``, one point in R^n
        or points shaped (N, n).

        For the d-sphere of radius r centered at c this is -(d/r^2)(y - c);
        it points toward the local center of curvature.
        """
        n = self.n
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            if y.shape[0] != n:
                raise ValueError(
                    f"expected a point in R^{n}, got shape {y.shape}"
                )
            return self._mean_curvature(y[None, :])[0]
        if y.ndim != 2 or y.shape[1] != n:
            raise ValueError(f"expected points shaped (N, {n}), got {y.shape}")
        return self._mean_curvature(y)

    def _mean_curvature(self, pts):
        """The mean curvature vectors at on-shape points shaped (N, n)."""
        raise NotImplementedError

    def total_measure(self):
        """Exact d-dimensional measure of the shape."""
        raise NotImplementedError

    def sample(self, resolution):
        """Sample the shape into a WeightedSample at the given resolution.

        Resolution counts quadrature nodes per parameter axis (at least 8).
        Doubling it at least halves the total-measure error until the rule's
        floor; for the circle, sphere, and torus the total measure is exact
        up to roundoff.
        """
        return self._sample_on(self._grid(resolution))

    @staticmethod
    def _grid(resolution):
        """The part of ``sample`` that depends on the resolution alone,
        read-only: the snapshots of a ``FlowTrajectory`` share it. Shapes
        with no such part keep the checked resolution as their grid."""
        return _check_resolution(resolution)

    def _sample_on(self, grid):
        """The sample on a grid from ``_grid``."""
        raise NotImplementedError

    def bounding_box(self, margin=0.0):
        """Axis-aligned box containing the shape, inflated by ``margin``."""
        raise NotImplementedError

    def _reject_off_shape(self, mismatch, what="point"):
        worst = float(np.max(mismatch))
        if worst > ON_SHAPE_TOL:
            raise ValueError(
                f"{what} not on the shape within {ON_SHAPE_TOL:g} "
                f"(distance {worst:.3e})"
            )


def _check_resolution(resolution):
    resolution = int(resolution)
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    return resolution


def _frozen(*arrays):
    """The arrays, made read-only so that samples may share them."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _angle_grid(resolution):
    """cos and sin of ``resolution`` equally spaced angles, and the
    projectors t t^T of the unit tangents t = (-sin, cos), filled column by
    column: the grid of a circle or an Angenent oval, which carries its
    unit tangent at its outward normal angle."""
    resolution = _check_resolution(resolution)
    theta = 2.0 * np.pi * np.arange(resolution) / resolution
    cos, sin = np.cos(theta), np.sin(theta)
    proj = np.empty((resolution, 2, 2))
    proj[:, 0, 0] = sin * sin
    proj[:, 0, 1] = proj[:, 1, 0] = -sin * cos
    proj[:, 1, 1] = cos * cos
    return _frozen(cos, sin, proj)


def _center(center, n):
    """A read-only copy of ``center``, checked to be a point of R^n."""
    center = np.array(center, dtype=float)
    if center.shape != (n,):
        raise ValueError(f"center must be a point in R^{n}")
    center.flags.writeable = False
    return center


class Circle(AnalyticShape):
    """Circle of given radius and center in R^2."""

    d = 1
    n = 2

    def __init__(self, radius=1.0, center=(0.0, 0.0)):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.center = _center(center, 2)

    def _mean_curvature(self, pts):
        rel = pts - self.center
        dist = np.linalg.norm(rel, axis=1)
        self._reject_off_shape(np.abs(dist - self.radius))
        return -rel / self.radius**2

    def total_measure(self):
        return 2.0 * np.pi * self.radius

    _grid = staticmethod(_angle_grid)

    def _sample_on(self, grid):
        cos, sin, proj = grid
        resolution = len(cos)
        # column by column: positions c + r (cos, sin)
        pts = np.empty((resolution, 2))
        pts[:, 0] = self.radius * cos + self.center[0]
        pts[:, 1] = self.radius * sin + self.center[1]
        w = np.full(resolution, 2.0 * np.pi * self.radius / resolution)
        return WeightedSample(pts, proj, w, self.d)

    def bounding_box(self, margin=0.0):
        r = self.radius + margin
        return self.center - r, self.center + r


class Ellipse(AnalyticShape):
    """Axis-aligned ellipse with semi-axes a (x) and b (y)."""

    d = 1
    n = 2

    def __init__(self, a, b, center=(0.0, 0.0)):
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        self.a = float(a)
        self.b = float(b)
        self.center = _center(center, 2)

    def _mean_curvature(self, pts):
        rel = pts - self.center
        theta = np.arctan2(rel[:, 1] / self.b, rel[:, 0] / self.a)
        recon = np.stack(
            [self.a * np.cos(theta), self.b * np.sin(theta)], axis=1
        )
        self._reject_off_shape(np.linalg.norm(recon - rel, axis=1))
        speed = np.sqrt(
            (self.a * np.sin(theta)) ** 2 + (self.b * np.cos(theta)) ** 2
        )
        kappa = self.a * self.b / speed**3
        # Inward unit normal of the counterclockwise parametrization.
        normal = np.stack(
            [-self.b * np.cos(theta), -self.a * np.sin(theta)], axis=1
        ) / speed[:, None]
        return kappa[:, None] * normal

    def total_measure(self):
        # imported here so that importing the package skips scipy.special
        from scipy.special import ellipe

        hi = max(self.a, self.b)
        lo = min(self.a, self.b)
        return float(4.0 * hi * ellipe(1.0 - (lo / hi) ** 2))

    def _sample_on(self, resolution):
        theta = 2.0 * np.pi * np.arange(resolution) / resolution
        pts = self.center + np.stack(
            [self.a * np.cos(theta), self.b * np.sin(theta)], axis=1
        )
        t = np.stack(
            [-self.a * np.sin(theta), self.b * np.cos(theta)], axis=1
        )
        speed = np.linalg.norm(t, axis=1)
        t /= speed[:, None]
        proj = t[:, :, None] * t[:, None, :]
        w = speed * (2.0 * np.pi / resolution)
        return WeightedSample(pts, proj, w, self.d)

    def bounding_box(self, margin=0.0):
        half = np.array([self.a, self.b]) + margin
        return self.center - half, self.center + half


class AngenentOval(AnalyticShape):
    """The Angenent oval {cos x = e^t cosh y} at time t < 0.

    With a = e^t and m = 1 - a^2, the point of outward normal
    (cos theta, sin theta) is x = arcsin(sqrt(m) cos theta),
    y = arcsinh(sqrt(m) sin theta / a), where the curvature is
    kappa = sqrt(1 - m cos^2 theta) / sqrt(m) = d theta / ds. Sampling is
    the trapezoid rule in theta with weights ds = d theta / kappa.
    """

    d = 1
    n = 2

    def __init__(self, t):
        t = float(t)
        if not t < 0:
            raise ValueError("the Angenent oval needs t < 0")
        self.t = t
        self.a = np.exp(t)
        self.m = -np.expm1(2.0 * t)

    def _kappa(self, cos):
        return np.sqrt(1.0 - self.m * cos * cos) / np.sqrt(self.m)

    def _mean_curvature(self, pts):
        px, py = pts[:, 0], pts[:, 1]
        self._reject_off_shape(np.abs(np.cos(px) - self.a * np.cosh(py)))
        theta = np.arctan2(self.a * np.sinh(py), np.sin(px))
        cos, sin = np.cos(theta), np.sin(theta)
        return -self._kappa(cos)[:, None] * np.stack([cos, sin], axis=1)

    def total_measure(self):
        # imported here so that importing the package skips scipy.special
        from scipy.special import ellipk

        return float(4.0 * np.sqrt(self.m) * ellipk(self.m))

    _grid = staticmethod(_angle_grid)

    def _sample_on(self, grid):
        cos, sin, proj = grid
        resolution = len(cos)
        pts = np.empty((resolution, 2))
        pts[:, 0] = np.arcsin(np.sqrt(self.m) * cos)
        pts[:, 1] = np.arcsinh(np.sqrt(self.m) * sin / self.a)
        w = (2.0 * np.pi / resolution) / self._kappa(cos)
        return WeightedSample(pts, proj, w, self.d)

    def bounding_box(self, margin=0.0):
        root = np.sqrt(self.m)
        half = np.array([np.arcsin(root), np.arcsinh(root / self.a)]) + margin
        return -half, half


class Sphere(AnalyticShape):
    """Round 2-sphere of given radius and center in R^3."""

    d = 2
    n = 3

    def __init__(self, radius=1.0, center=(0.0, 0.0, 0.0)):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.center = _center(center, 3)

    def _mean_curvature(self, pts):
        rel = pts - self.center
        dist = np.linalg.norm(rel, axis=1)
        self._reject_off_shape(np.abs(dist - self.radius))
        return -(2.0 / self.radius**2) * rel

    def total_measure(self):
        return 4.0 * np.pi * self.radius**2

    @staticmethod
    def _grid(resolution):
        """Product rule: trapezoid in azimuth, Gauss-Legendre in the polar
        coordinate z. The area element is r dtheta dz, so the rule integrates
        the total measure exactly and smooth integrands spectrally. Returns
        the Legendre nodes u and weights, sqrt(1 - u^2) and the azimuth
        cosines and sines."""
        resolution = _check_resolution(resolution)
        u, gw = np.polynomial.legendre.leggauss(resolution)
        ntheta = 2 * resolution
        theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
        return _frozen(u, gw, np.sqrt(1.0 - u**2), np.cos(theta),
                       np.sin(theta))

    def _sample_on(self, grid):
        u, gw, root, cos, sin = grid
        resolution, ntheta = len(u), len(cos)
        r = self.radius
        ring = r * root
        # Column by column, rows over (polar node, azimuth node).
        count = resolution * ntheta
        pts = np.empty((count, 3))
        pts[:, 0] = np.multiply.outer(ring, cos).ravel() + self.center[0]
        pts[:, 1] = np.multiply.outer(ring, sin).ravel() + self.center[1]
        pts[:, 2] = np.repeat(r * u, ntheta) + self.center[2]
        w = (r**2 * gw)[:, None] * np.full(ntheta, 2.0 * np.pi / ntheta)
        w = w.reshape(-1)
        nu = [(pts[:, i] - self.center[i]) / r for i in range(3)]
        # I - nu nu^T; 0 - x rather than -x keeps the sign of its zeros
        proj = np.empty((count, 3, 3))
        for i in range(3):
            proj[:, i, i] = 1.0 - nu[i] * nu[i]
            for j in range(i + 1, 3):
                proj[:, i, j] = proj[:, j, i] = 0.0 - nu[i] * nu[j]
        return WeightedSample(pts, proj, w, self.d)

    def bounding_box(self, margin=0.0):
        r = self.radius + margin
        return self.center - r, self.center + r


class Torus(AnalyticShape):
    """Round torus in R^3: distance R from the axis, tube radius a < R."""

    d = 2
    n = 3

    def __init__(self, major_radius=2.0, minor_radius=0.5,
                 center=(0.0, 0.0, 0.0)):
        if not 0 < minor_radius < major_radius:
            raise ValueError("need 0 < minor_radius < major_radius")
        self.major_radius = float(major_radius)
        self.minor_radius = float(minor_radius)
        self.center = _center(center, 3)

    def _position(self, theta, psi):
        ring = self.major_radius + self.minor_radius * np.cos(psi)
        return np.stack(
            [ring * np.cos(theta), ring * np.sin(theta),
             self.minor_radius * np.sin(psi)],
            axis=-1,
        )

    @staticmethod
    def _outward_normal(theta, psi):
        return np.stack(
            [np.cos(psi) * np.cos(theta), np.cos(psi) * np.sin(theta),
             np.sin(psi)],
            axis=-1,
        )

    def _mean_curvature(self, pts):
        rel = pts - self.center
        theta = np.arctan2(rel[:, 1], rel[:, 0])
        s = np.sqrt(rel[:, 0] ** 2 + rel[:, 1] ** 2)
        psi = np.arctan2(rel[:, 2], s - self.major_radius)
        recon = self._position(theta, psi)
        self._reject_off_shape(np.linalg.norm(recon - rel, axis=1))
        ring = self.major_radius + self.minor_radius * np.cos(psi)
        total = 1.0 / self.minor_radius + np.cos(psi) / ring
        return -total[:, None] * self._outward_normal(theta, psi)

    def total_measure(self):
        return 4.0 * np.pi**2 * self.major_radius * self.minor_radius

    def _sample_on(self, resolution):
        theta = 2.0 * np.pi * np.arange(resolution) / resolution
        psi = 2.0 * np.pi * np.arange(resolution) / resolution
        tg, pg = np.meshgrid(theta, psi, indexing="ij")
        tg, pg = tg.reshape(-1), pg.reshape(-1)
        pts = self._position(tg, pg) + self.center
        nu = self._outward_normal(tg, pg)
        proj = np.eye(3) - nu[:, :, None] * nu[:, None, :]
        ring = self.major_radius + self.minor_radius * np.cos(pg)
        w = self.minor_radius * ring * (2.0 * np.pi / resolution) ** 2
        return WeightedSample(pts, proj, w, self.d)

    def bounding_box(self, margin=0.0):
        out = self.major_radius + self.minor_radius + margin
        up = self.minor_radius + margin
        half = np.array([out, out, up])
        return self.center - half, self.center + half


_SHAPES = {
    "circle": Circle,
    "ellipse": Ellipse,
    "sphere": Sphere,
    "torus": Torus,
}


def make_shape(name, **params):
    """Construct a shape by name: circle, ellipse, sphere, or torus."""
    try:
        cls = _SHAPES[name]
    except KeyError:
        raise ValueError(
            f"unknown shape {name!r}; choose from {sorted(_SHAPES)}"
        ) from None
    return cls(**params)

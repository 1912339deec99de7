"""Kernel-regularized first variation, mass density, and mean curvature.

For a varifold with atoms (x_j, P_j, m_j) and a kernel pair (rho, xi) at
scale eps, the regularized quantities at a point y are

    first variation:  sum_j m_j P_j grad rho_eps(x_j - y)
    mass density:     sum_j m_j xi_eps(|x_j - y|)

and the approximate mean curvature is minus their quotient times the ratio
of the pair's normalization constants (c_xi / c_rho), which makes the value
invariant under rescaling either profile and consistent with the classical
mean curvature as eps shrinks. Volumetric varifolds are evaluated through
their midpoint subcell quadrature, refined automatically when the cell size
is not small compared to eps.

Evaluation at many points visits the probes in the leaf order of a k-d tree
built on them, so consecutive probes lie close together, and cuts that
order into runs of at most ``_PAIR_BUDGET`` probe-atom pairs (counted
exactly beforehand), so memory stays bounded. Each run takes all its exact
pairs (atoms within eps) from one dual-tree search between a k-d tree of
the run and a cached k-d tree of the atoms, so kernels are evaluated only
inside their support. The pairs of each probe are summed in increasing
atom index, which fixes its summation order, so results do not depend on
the order of the probes or on how they are cut into runs.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .varifold import VolumetricVarifold

__all__ = [
    "DenominatorTooSmall",
    "CurvatureQuery",
    "CurvatureField",
    "regularized_sums",
    "approx_mean_curvature",
    "curvature_field",
    "write_curvature_csv",
]

# Most probe-atom pairs held at once; bounds the per-chunk pair arrays.
_PAIR_BUDGET = 32_768


class DenominatorTooSmall(ValueError):
    """Regularized mass at a query point fell below the safeguard floor."""

    def __init__(self, point, denominator, floor):
        self.point = np.asarray(point, dtype=float)
        self.denominator = float(denominator)
        self.floor = float(floor)
        super().__init__(
            f"regularized mass {self.denominator:.3e} at point "
            f"{np.array2string(self.point, precision=6)} is below the "
            f"floor {self.floor:.3e}; the point is too far from the support"
        )


class CurvatureQuery:
    """Evaluation parameters: kernel pair, scale eps, denominator guard.

    ``tau`` sets the floor tau * eps**(d - n) under which the curvature
    quotient is refused; d and n come from the pair.
    """

    def __init__(self, pair, epsilon, tau=1e-14):
        epsilon = float(epsilon)
        if not (0.0 < epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        tau = float(tau)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.pair = pair
        self.epsilon = epsilon
        self.tau = tau

    @property
    def floor(self):
        return self.tau * self.epsilon ** (self.pair.d - self.pair.n)


class CurvatureField:
    """Mean curvature evaluated at a batch of points, failures recorded.

    ``values`` rows are nan where ``ok`` is False; ``denominators`` always
    holds the regularized mass so failures can be diagnosed.
    """

    def __init__(self, points, values, denominators, ok):
        self.points = points
        self.values = values
        self.denominators = denominators
        self.ok = ok

    def __len__(self):
        return len(self.points)

    @property
    def n_failures(self):
        return int(np.sum(~self.ok))


def _atom_cloud(varifold, query):
    """The (positions, projector columns, masses, k-d tree) summed over.

    Projector column k of every atom is stored contiguously as entry k of
    the (n, N, n) column array. Volumetric varifolds are expanded into their
    subcell quadrature nodes, with enough subdivisions that subcells stay
    below eps / 4.
    """
    volumetric = isinstance(varifold, VolumetricVarifold)
    if volumetric:
        s = max(2, varifold.subdivisions,
                math.ceil(4.0 * varifold.h / query.epsilon))
        key = ("atom_cloud", s)
    else:
        key = ("atom_cloud",)
    if key not in varifold._caches:
        if volumetric:
            pts, proj, masses = varifold.atoms(s)
        else:
            pts, proj, masses = (
                varifold.positions, varifold.projectors, varifold.masses
            )
        columns = np.ascontiguousarray(np.moveaxis(proj, 2, 0))
        columns.flags.writeable = False
        varifold._caches[key] = (pts, columns, masses, cKDTree(pts))
    return varifold._caches[key]


def _chunk_bounds(counts):
    """Cut probes into runs of at most _PAIR_BUDGET pairs (or one probe)."""
    ends = np.cumsum(counts)
    a = 0
    while a < len(counts):
        before = ends[a - 1] if a else 0
        b = int(np.searchsorted(ends, before + _PAIR_BUDGET, side="right"))
        b = max(b, a + 1)
        yield a, b
        a = b


def _chunk_sums(cloud, query, points):
    """First variation and mass at a run of probes.

    The run's probe-atom pairs come from one dual-tree search and are held
    as CSR rows with sorted atom columns, so every probe sums its pairs in
    the same order whatever run it is in.
    """
    pts, columns, masses, tree = cloud
    n_atoms, n = pts.shape
    eps = query.epsilon
    pair = query.pair
    found = cKDTree(points).sparse_distance_matrix(
        tree, eps, output_type="ndarray"
    )
    key = np.sort(found["i"] * n_atoms + found["j"])
    rows, cols = np.divmod(key, n_atoms)
    per_probe = np.bincount(rows, minlength=len(points))
    indptr = np.concatenate(([0], np.cumsum(per_probe)))
    diff = np.take(pts, cols, axis=0)
    diff -= np.repeat(points, per_probe, axis=0)
    r = np.sqrt(np.einsum("pi,pi->p", diff, diff))
    u = r / eps
    pair_masses = np.take(masses, cols)
    # out of place: with no pairs at all, bincount returns int64
    den = np.bincount(
        rows, weights=pair_masses * pair.xi(u), minlength=len(points)
    ) * eps ** (-n)
    # grad rho_eps(w) = eps^-(n+1) rho'(|w|/eps) w/|w|, zero at w=0
    w = pair_masses * pair.rho.derivative(u) / np.maximum(r, 1e-300)
    w *= eps ** (-(n + 1))
    num = np.zeros((len(points), n))
    c = csr_matrix((w, cols, indptr), shape=(len(points), n_atoms))
    for k in range(n):
        c.data = w * diff[:, k]
        num += c @ columns[k]
    return num, den


def _pair_sums(varifold, query, points):
    """Regularized first variation and mass at each point: ((P, n), (P,))."""
    cloud = _atom_cloud(varifold, query)
    tree = cloud[-1]
    points = np.ascontiguousarray(points, dtype=float)
    if points.shape[1] != tree.m:
        raise ValueError(f"query points must have dimension {tree.m}")
    order = cKDTree(points).indices
    ordered = np.take(points, order, axis=0)
    num = np.zeros((len(points), tree.m))
    den = np.zeros(len(points))
    counts = tree.query_ball_point(ordered, query.epsilon, return_length=True)
    for a, b in _chunk_bounds(counts):
        run = order[a:b]
        num[run], den[run] = _chunk_sums(cloud, query, ordered[a:b])
    return num, den


def _as_batch(points):
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    return np.atleast_2d(points), single


def regularized_sums(varifold, query, points):
    """Kernel-smoothed first variation and mass density at the points.

    Returns (sum_j m_j P_j grad rho_eps(x_j - y), sum_j m_j xi_eps(|x_j - y|))
    as arrays of shapes (P, n) and (P,), or (n,) and a float for one point.
    """
    batch, single = _as_batch(points)
    num, den = _pair_sums(varifold, query, batch)
    return (num[0], float(den[0])) if single else (num, den)


def curvature_field(varifold, query, points):
    """Regularized mean curvature at each point, failures recorded."""
    batch, _ = _as_batch(points)
    num, den = _pair_sums(varifold, query, batch)
    ok = den >= query.floor
    ratio = query.pair.c_xi / query.pair.c_rho
    values = np.full_like(num, np.nan)
    values[ok] = -ratio * num[ok] / den[ok, None]
    return CurvatureField(batch, values, den, ok)


def approx_mean_curvature(varifold, query, points):
    """Like :func:`curvature_field` but raises at the smallest denominator
    if any denominator is below the floor."""
    batch, single = _as_batch(points)
    field = curvature_field(varifold, query, batch)
    if not np.all(field.ok):
        worst = int(np.argmin(field.denominators))
        raise DenominatorTooSmall(
            batch[worst], field.denominators[worst], query.floor
        )
    return field.values[0] if single else field.values


def write_curvature_csv(field, path):
    """Table of query point, curvature vector, denominator, and status."""
    n = field.points.shape[1]
    header = (
        [f"x{i + 1}" for i in range(n)]
        + [f"H{i + 1}" for i in range(n)]
        + ["denominator", "status"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(field)):
            status = "ok" if field.ok[k] else "small_denominator"
            row = (
                [f"{v:.17g}" for v in field.points[k]]
                + [f"{v:.17g}" for v in field.values[k]]
                + [f"{field.denominators[k]:.17g}", status]
            )
            writer.writerow(row)

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
order into runs of at most ``_PAIR_BUDGET`` candidate pairs, so memory
stays bounded. The neighbour search runs on groups of atoms rather than on
atoms (the cell-list method of molecular dynamics): a volumetric varifold
is searched by cell centre, and each cell found brings in its s^n
consecutive subcell atoms at once; an atomic varifold is the special case
of one-atom groups. Each run takes its (probe, group) pairs from one
dual-tree search at a reach that finds every group with an atom within
eps, expands them to (probe, atom) pairs and keeps those with
|x_j - y| <= eps, so kernels are evaluated only inside their support. The
pairs of each probe are summed in increasing atom index, which fixes its
summation order, so results do not depend on the order of the probes or on
how they are cut into runs.
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
# Relative widening of the group search radius: the tree measures distances
# to group centres with its own rounding, which must not drop an atom at
# exactly eps. Covers coordinates up to about 10^6 times the radius.
_REACH_SLACK = 1e-9


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
    """The atoms summed over and the groups they are searched by.

    Returns (positions, projector columns, masses, group tree, group size,
    spread). Projector column k of every atom is stored contiguously as
    entry k of the (n, N, n) column array. Atoms ``g * size`` to
    ``(g + 1) * size - 1`` form group g, whose centre the k-d tree holds,
    and no atom lies farther than ``spread`` from its group centre.
    Volumetric varifolds are expanded into their subcell quadrature nodes,
    with enough subdivisions that subcells stay below eps / 4, and grouped
    by cell; the atoms of an atomic varifold are groups of one.
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
            centres = varifold.cell_centers()
            size = s**varifold.n
            # subcell nodes sit (s - 1) / (2 s) of an edge from the centre
            # on every axis
            spread = varifold.h * (s - 1) / (2 * s)
        else:
            pts, proj, masses = (
                varifold.positions, varifold.projectors, varifold.masses
            )
            centres, size, spread = pts, 1, 0.0
        columns = np.ascontiguousarray(np.moveaxis(proj, 2, 0))
        columns.flags.writeable = False
        varifold._caches[key] = (
            pts, columns, masses, cKDTree(centres), size, spread
        )
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


def _chunk_sums(cloud, query, reach, points):
    """First variation and mass at a run of probes.

    The run's probe-group pairs come from one dual-tree search and expand
    to probe-atom pairs held as CSR rows with sorted atom columns, so every
    probe sums its pairs in the same order whatever run it is in.
    """
    pts, columns, masses, tree, size, _ = cloud
    n_atoms, n = pts.shape
    eps = query.epsilon
    pair = query.pair
    found = cKDTree(points).sparse_distance_matrix(
        tree, reach, output_type="ndarray"
    )
    key = np.sort(found["i"] * tree.n + found["j"])
    rows, groups = np.divmod(key, tree.n)
    per_probe = np.bincount(rows, minlength=len(points)) * size
    indptr = np.concatenate(([0], np.cumsum(per_probe)))
    cols = groups
    if size > 1:
        # groups are runs of consecutive atoms: sorted groups sort the atoms
        cols = (groups[:, None] * size + np.arange(size)).ravel()
    diff = np.take(pts, cols, axis=0)
    diff -= np.repeat(points, per_probe, axis=0)
    r = np.sqrt(np.einsum("pi,pi->p", diff, diff))
    if len(r) and r.max() > eps:
        near = r <= eps
        indptr = np.concatenate(([0], np.cumsum(near)))[indptr]
        near = np.flatnonzero(near)
        cols, r = np.take(cols, near), np.take(r, near)
        diff = np.take(diff, near, axis=0)
    u = r / eps
    c = csr_matrix((pair.xi(u), cols, indptr), shape=(len(points), n_atoms))
    # adds xi_j * m_j in pair order, from 0.0, for each probe
    den = (c @ masses) * eps ** (-n)
    # grad rho_eps(w) = eps^-(n+1) rho'(|w|/eps) w/|w|, zero at w=0
    w = np.take(masses, cols) * pair.rho.derivative(u) / np.maximum(r, 1e-300)
    w *= eps ** (-(n + 1))
    num = np.zeros((len(points), n))
    for k in range(n):
        c.data = w * diff[:, k]
        num += c @ columns[k]
    return num, den


def _pair_sums(varifold, query, points):
    """Regularized first variation and mass at each point: ((P, n), (P,))."""
    cloud = _atom_cloud(varifold, query)
    _, _, _, tree, size, spread = cloud
    points = np.ascontiguousarray(points, dtype=float)
    if points.shape[1] != tree.m:
        raise ValueError(f"query points must have dimension {tree.m}")
    reach = (query.epsilon + spread) * (1.0 + _REACH_SLACK)
    order = cKDTree(points).indices
    ordered = np.take(points, order, axis=0)
    num = np.zeros((len(points), tree.m))
    den = np.zeros(len(points))
    # exact upper bounds on each probe's expanded pairs
    counts = tree.query_ball_point(ordered, reach, return_length=True) * size
    for a, b in _chunk_bounds(counts):
        run = order[a:b]
        num[run], den[run] = _chunk_sums(cloud, query, reach, ordered[a:b])
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

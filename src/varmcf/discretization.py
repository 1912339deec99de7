"""Uniform cubical meshes and the binning of samples into cell varifolds.

``discretize`` collapses a weighted surface sample to one (mass, plane)
pair per occupied mesh cell: the mass is the summed weight, the plane is
the one closest in Frobenius norm to the mass-weighted mean projector,
i.e. the span of its top eigenvectors. A line in the plane has them in
closed form, which costs a few array operations per snapshot instead of
one LAPACK ``eigh`` call per cell; every other dimension takes ``eigh``.
The cell diameter ``mesh.h`` controls how far any sample point can sit
from its cell's quadrature nodes, which is what the
measure-approximation guarantees are written in terms of.
"""

from __future__ import annotations

import math

import numpy as np

from .varifold import VolumetricVarifold, _plane_dim

__all__ = [
    "Mesh",
    "discretize",
]


class Mesh:
    """Axis-aligned uniform grid of cubical cells covering a box.

    The grid is anchored at ``lo``; the number of cells per axis is the
    smallest count whose union covers [lo, hi].
    """

    __slots__ = ("origin", "upper", "edge", "counts")

    def __init__(self, lo, hi, edge):
        lo = np.ascontiguousarray(lo, dtype=float)
        hi = np.ascontiguousarray(hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lo and hi must be vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("lo and hi must be finite")
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent on every axis")
        edge = float(edge)
        if not (edge > 0 and math.isfinite(edge)):
            raise ValueError("edge must be positive and finite")
        # ceil with slack so an exact integer extent is not pushed up a cell
        counts = np.maximum(
            1, np.ceil((hi - lo) / edge - 1e-12).astype(np.int64)
        )
        self.origin = lo
        self.upper = hi
        self.edge = edge
        self.counts = counts
        for arr in (self.origin, self.upper, self.counts):
            arr.flags.writeable = False

    @property
    def n(self):
        return len(self.origin)

    @property
    def h(self):
        """Cell diameter: edge times sqrt(n)."""
        return self.edge * math.sqrt(self.n)

    def num_cells(self):
        return math.prod(int(c) for c in self.counts)

    def cell_keys(self, points):
        """Row-major linear index of the cell containing each point.

        Points up to 1e-9 edges outside the box, and points on its far
        faces, belong to the nearest cell. Raises ValueError if any point
        lies farther outside or is not finite. Works axis by axis on
        (..., n) points and returns (...) int64 keys; the grid coordinates
        are ``np.unravel_index(keys, mesh.counts)``.

        Each axis makes one pass into a quotient buffer
        ``(x_k - origin_k) / edge``, reused across axes. Subtracting and
        dividing round monotonically, so a quotient above that of the
        slack face ``origin_k - 1e-9 edge`` belongs to a coordinate above
        it, and likewise at the far slack face: the box test reads the
        buffer's ``min`` and ``max``. Only a quotient that fails it or ties
        a face's (and nan, which fails every comparison) sends all points
        through the per-point test on the coordinates, which counts the bad
        ones. Past the test every quotient exceeds -1, so the cast, which
        truncates, equals ``floor`` clipped at 0; quotients on or beyond the
        far face are clipped to the last cell.
        """
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (self.n,):
            raise ValueError(f"points must have dimension {self.n}")
        if self.num_cells() > np.iinfo(np.int64).max:
            raise ValueError(f"{self.num_cells()} cells overflow int64 keys")
        flat = points.reshape(-1, self.n)
        keys = np.empty(len(flat), dtype=np.int64)
        if len(flat) == 0:
            return keys.reshape(points.shape[:-1])
        slack = 1e-9 * self.edge
        lo, hi = self.origin - slack, self.upper + slack
        # the slack faces as quotients, rounded as the points' are
        q_lo = (lo - self.origin) / self.edge
        q_hi = (hi - self.origin) / self.edge
        quot = np.empty(len(flat))
        cell = keys  # the first axis is cast straight into the keys
        for k in range(self.n):
            np.subtract(flat[:, k], self.origin[k], out=quot)
            quot /= self.edge
            q_max = np.max(quot)
            if not (np.min(quot) > q_lo[k] and q_max < q_hi[k]):
                _check_box(flat, lo, hi)
            if k == 1:
                cell = np.empty(len(flat), dtype=np.int64)
            np.copyto(cell, quot, casting="unsafe")
            if q_max >= self.counts[k]:
                np.minimum(cell, self.counts[k] - 1, out=cell)
            if k:
                keys *= self.counts[k]
                keys += cell
        return keys.reshape(points.shape[:-1])

    def cell_center(self, indices):
        return self.origin + (np.asarray(indices) + 0.5) * self.edge


def _check_box(flat, lo, hi):
    """Raise if any of the (N, n) points lies outside [lo, hi]; nan does."""
    inside = np.ones(len(flat), dtype=bool)
    for k in range(flat.shape[1]):
        inside &= flat[:, k] >= lo[k]
        inside &= flat[:, k] <= hi[k]
    bad = int(np.sum(~inside))
    if bad:
        raise ValueError(f"{bad} point(s) lie outside the mesh box")


def discretize(sample, mesh, subdivisions=2):
    """Bin a weighted sample into a :class:`VolumetricVarifold`.

    ``sample`` is any set with ``atoms()``: a ``WeightedSample`` or an
    atomic varifold. The grouping does not depend on the order of the
    points: the same cells hold the same points. Each cell sums its points
    in sample order, so a permuted sample gives masses and planes that
    agree up to rounding, not bitwise.

    Points are grouped in runs of consecutive points in one cell, and
    sorting the run keys orders the cells. A cell that is one run sums it
    where it lies; a cell that several runs cross gathers its points run by
    run, in the order a stable sort of the point keys gives. If whole-run
    cells hold at most half the points, every cell gathers, so the in-place
    sums never step over more points than they sum.

    A cell's plane is the rank-d projector nearest its symmetrized mean
    projector (``_nearest_planes``): in closed form for lines in the
    plane, from ``np.linalg.eigh`` otherwise, and zero for d = 0.
    """
    positions, projectors, weights = sample.atoms()
    d = _plane_dim(projectors)
    if positions.shape[1] != mesh.n:
        raise ValueError(
            f"sample dimension {positions.shape[1]} != mesh dimension {mesh.n}"
        )
    n = mesh.n
    # projector entries as (N, n * n) rows
    entries = projectors.reshape(-1, n * n)

    keys = mesh.cell_keys(positions)
    run_starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    lengths = np.diff(run_starts, append=len(keys))
    run_keys = keys[run_starts]
    by_key = np.argsort(run_keys, kind="stable")
    run_keys = run_keys[by_key]
    # each cell in key order: its first run in by_key and its run count
    first = np.flatnonzero(np.r_[True, run_keys[1:] != run_keys[:-1]])
    count = np.diff(first, append=len(by_key))
    whole = count == 1
    if 2 * np.sum(lengths[by_key[first[whole]]]) <= len(keys):
        whole[:] = False

    cell_mass = np.empty(len(first))
    proj_sum = np.empty((len(first), n * n))
    cells = np.flatnonzero(whole)
    if len(cells):
        cells = cells[np.argsort(by_key[first[cells]])]  # in sample order
        runs = by_key[first[cells]]
        # the bounds of each whole run and of the points up to the next one
        bounds = np.c_[run_starts, run_starts + lengths][runs].ravel()
        lo, hi = bounds[0], bounds[-1]
        bounds = bounds[:-1] - lo
        cell_mass[cells] = np.add.reduceat(weights[lo:hi], bounds)[::2]
        column = np.empty(hi - lo)
        for k in range(n * n):
            np.multiply(entries[lo:hi, k], weights[lo:hi], out=column)
            proj_sum[cells, k] = np.add.reduceat(column, bounds)[::2]
    cells = np.flatnonzero(~whole)
    runs = by_key[np.repeat(~whole, count)]
    size = lengths[runs]
    ends = np.cumsum(size)
    # the points of the runs one after another, cell by cell
    order = np.repeat(run_starts[runs] - ends + size, size)
    order += np.arange(len(order))
    starts = (ends - size)[np.cumsum(count[cells]) - count[cells]]
    w = np.take(weights, order)
    cell_mass[cells] = np.add.reduceat(w, starts)
    rows = np.take(entries, order, axis=0)
    rows *= w[:, None]
    proj_sum[cells] = np.add.reduceat(rows, starts, axis=0)

    keep = cell_mass > 0
    cell_mass = cell_mass[keep]
    mean = proj_sum[keep] / cell_mass[:, None]
    # entry (i, j) averaged with entry (j, i)
    mean = 0.5 * (mean + mean[:, np.arange(n * n).reshape(n, n).T.ravel()])
    mean_proj = mean.reshape(-1, n, n)
    cell_idx = np.stack(
        np.unravel_index(run_keys[first][keep], mesh.counts), axis=1
    )

    return VolumetricVarifold(
        mesh, cell_idx, cell_mass, _nearest_planes(mean_proj, d),
        subdivisions=subdivisions,
    )


def _nearest_planes(mean_proj, d):
    """The rank-d orthogonal projector nearest in Frobenius norm to each
    symmetric (K, n, n) matrix: the span of its top-d eigenvectors.

    A line in the plane (n = 2, d = 1) has the closed form of the 2x2
    symmetric Schur step (Golub-Van Loan, Matrix Computations, 8.5): with
    alpha = (a - c)/2 and rho = hypot(alpha, b) for the matrix
    [[a, b], [b, c]], the top eigenprojector is (I + N/rho)/2 with
    N = [[alpha, b], [b, -alpha]]. An isotropic matrix (rho = 0) gets
    diag(0, 1), the line ``eigh`` picks there. Rank 0 is the zero
    projector; every other (n, d) takes ``np.linalg.eigh``.
    """
    k, n, _ = mean_proj.shape
    if d == 0:
        return np.zeros((k, n, n))
    if (n, d) != (2, 1):
        _, vecs = np.linalg.eigh(mean_proj)
        top = vecs[..., -d:]
        return np.einsum("kia,kja->kij", top, top)
    alpha = mean_proj[:, 0, 0] - mean_proj[:, 1, 1]
    alpha *= 0.5
    b = mean_proj[:, 0, 1]
    rho = np.hypot(alpha, b)
    # alpha / rho = -1 and b / rho = 0 give diag(0, 1)
    iso = rho == 0
    alpha[iso], rho[iso] = -1.0, 1.0
    alpha /= rho
    proj = np.empty((k, n, n))
    np.add(1.0, alpha, out=proj[:, 0, 0])
    np.subtract(1.0, alpha, out=proj[:, 1, 1])
    np.divide(b, rho, out=proj[:, 0, 1])
    proj[:, 1, 0] = proj[:, 0, 1]
    proj *= 0.5
    return proj

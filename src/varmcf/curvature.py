"""Kernel-regularized first variation, mass density, and mean curvature.

For a varifold with atoms (x_j, P_j, m_j) and a kernel pair (rho, xi) at
scale eps, the regularized quantities at a point y are

    first variation:  sum_j m_j P_j grad rho_eps(x_j - y)
    mass density:     sum_j m_j xi_eps(|x_j - y|)

and the approximate mean curvature is minus their quotient times the ratio
of the pair's normalization constants (c_xi / c_rho), which makes the value
invariant under rescaling either profile and consistent with the classical
mean curvature as eps shrinks. A volumetric varifold is evaluated through
its midpoint subcell quadrature, refined automatically when the cell size
is not small compared to eps: only positions are expanded to subcell
atoms, while each atom keeps its cell's plane and a 1 / s_a^n share of its
mass, so the sums are contracted per cell.

The neighbour search is a cell list (``cells.CellList``, the linked-cell
method of molecular dynamics) over groups of atoms, cached on the varifold
per search reach: a volumetric varifold is searched by cell centre, each
cell standing for its s_a^n consecutive subcell atoms; an atomic varifold
is the special case of one-atom groups. Each probe takes one of two
paths, chosen from the probe alone. The probes of a path are visited in
the order of the list's blocks, so consecutive probes lie close together,
and cut into runs of at most ``_PAIR_BUDGET`` (per pair) or
``_NODE_BUDGET`` (offset table) candidate pairs, so memory stays bounded.
Each run takes the (probe, group) pairs within a reach that finds every
group with an atom within eps.

* Per pair. The (probe, group) pairs expand to (probe, atom) pairs, and
  only those with |x_j - y| <= eps reach the kernels, with their
  displacements; an atomic varifold's pairs keep the squared distances the
  search computed. Each probe sums its pairs in the cell list's sorted
  order of their groups.
* Offset table. A probe that is one of the varifold's own quadrature nodes
  (subdivisions s_p) sits at a fixed subnode p of its cell, so its
  displacement to every atom of a cell k cells away is one of s_a^n fixed
  vectors. A table holds, for every subnode and every offset whose cell
  holds an atom within eps, the kernel sums over the cell's subcell atoms
  (the lattice form of the point-cloud kernel sums of Buet and Rumpf);
  each (probe, cell) pair gathers its entry and the sums run over cells in
  cell-list order. Its results agree with the per-pair path to rounding,
  not bitwise. Every node probe takes the table, whatever s_a and s_p,
  unless the table exceeds ``_TABLE_BUDGET``; then they take the per-pair
  path. The table is kept on the query, once per key of everything it is
  built from (edge, n, s_p, s_a, reach, pair and eps), so the snapshots of
  one ``brakke_residual`` call share it. Which probes are nodes is decided
  by ``VolumetricVarifold.quadrature_index``, beside the node formula.

The two paths share no contraction: the per-pair path multiplies CSR
matrices of its kernel values (``scipy.sparse``, imported on first use),
the offset-table path sums each probe's row with ``np.add.reduceat``, so a
flow residual loads no scipy. Either way each probe's summation order is
fixed by the probe, so results do not depend on the order of the probes,
on the other probes of the batch or on how they are cut into runs.
"""

from __future__ import annotations

import math

import numpy as np

from .cells import CellList, displacements, squared_distances
from .varifold import VolumetricVarifold

__all__ = [
    "DenominatorTooSmall",
    "CurvatureQuery",
    "CurvatureField",
    "regularized_sums",
    "approx_mean_curvature",
    "curvature_field",
]

# Most candidate pairs of a run, which bounds its arrays (the search holds
# 4 per candidate), on the per-pair and the offset-table path. A per-pair
# run pays a fixed cost (a CSR build, n + 1 sparse products), so it takes
# twice the budget: 4 x 49,152 doubles still fit a 2 MiB L2 cache.
_PAIR_BUDGET = 49_152
_NODE_BUDGET = 24_576
# Relative widening of the group search radius: block indices and centre
# distances are rounded, which must not drop an atom at exactly eps. Covers
# coordinates up to about 10^6 times the radius.
_REACH_SLACK = 1e-9
# Most subcell radii an offset table may span: the box of cell offsets
# within reach, times the probe subnodes, times the subcell atoms of a cell
# (s_p^n (2K + 1)^n s_a^n). Building a table peaks at about 64 bytes per
# radius of the box in 2-D and 35 in 3-D (numpy allocations, boxes of
# 0.1M to 2.7M radii), so the cap keeps one table near 256 MiB in 2-D. The
# runner's eps-0.2 circle snapshot spans 2.06M. Node probes of a larger
# table take the per-pair path.
_TABLE_BUDGET = 1 << 22


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

    The query keeps the offset tables it builds in ``_tables`` for its
    lifetime, one per key, filled by check-then-set like the varifold
    ``_caches``: threads that miss together each build the same table.
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
        self._tables = {}

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


def _groups(varifold, query):
    """Subcell count s_a per axis, atoms per group and group spread.

    A volumetric varifold is summed over its subcell quadrature with enough
    subdivisions that subcells stay below eps / 4, grouped by cell: no node
    lies farther than ``spread`` from its cell centre. The atoms of an
    atomic varifold are groups of one (s_a is None).
    """
    if not isinstance(varifold, VolumetricVarifold):
        return None, 1, 0.0
    s = max(2, varifold.subdivisions,
            math.ceil(4.0 * varifold.h / query.epsilon))
    # subcell nodes sit (s - 1) / (2 s) of an edge from the centre on
    # every axis
    return s, s**varifold.n, varifold.h * (s - 1) / (2 * s)


def _offset_table(varifold, query, s_a, big_k):
    """Subcell kernel sums of one cell by probe subnode and cell offset.

    For a probe at subnode p of its cell and a cell k cells away, entry
    (p, k) holds ``s_a^-n sum_a (xi(|d|/eps), eps^-(n+1) rho'(|d|/eps)
    d/|d|)`` over the cell's subcell atoms a, where
    ``d = (k + (a + 1/2)/s_a - (p + 1/2)/s_p) edge``. Offsets run over
    [-K, K]^n; only offsets whose cell holds an atom within eps are
    evaluated, the others stay zero. Returns one read-only (1 + n, ...)
    array: row 0 the xi sums, rows 1 to n the first-variation sums, each
    flat in the order (p, k + K) row-major. Built once per query and key
    by ``_node_path``.
    """
    n, s_p = varifold.n, varifold.subdivisions
    edge, eps, pair = varifold.mesh.edge, query.epsilon, query.pair
    side = 2 * big_k + 1
    # per axis, in edges: offset of the cell corner from the probe
    base = (np.arange(-big_k, big_k + 1)[None, :]
            - (np.arange(s_p) + 0.5)[:, None] / s_p)
    sub_a = (np.arange(s_a) + 0.5) / s_a
    # the atoms of a cell form a product grid, so the nearest one is
    # nearest on every axis
    gap = (np.abs(base[:, :, None] + sub_a).min(axis=2) * edge) ** 2
    shape = (s_p,) * n + (side,) * n
    gap_sq = np.zeros(shape)
    for axis in range(n):
        dims = [1] * (2 * n)
        dims[axis], dims[n + axis] = s_p, side
        gap_sq = gap_sq + gap.reshape(dims)
    kept = np.flatnonzero(gap_sq.ravel() <= eps * eps)
    index = np.unravel_index(kept, shape)
    corner = np.stack(
        [base[index[axis], index[n + axis]] for axis in range(n)], axis=1
    )
    grid = np.meshgrid(*([sub_a] * n), indexing="ij")
    sub = np.stack([g.ravel() for g in grid], axis=1)
    diff = (corner[:, None, :] + sub[None, :, :]) * edge
    diff = diff.reshape(-1, n)
    r = np.sqrt(np.einsum("pi,pi->p", diff, diff))
    u = r / eps
    per_cell = s_a**n
    size = s_p**n * side**n
    xi = pair.xi(u).reshape(-1, per_cell).sum(axis=1) / per_cell
    w = pair.rho.derivative(u) / np.maximum(r, 1e-300) * eps ** (-(n + 1))
    rho = (w[:, None] * diff).reshape(-1, per_cell, n).sum(axis=1) / per_cell
    # allocated after the per-radius products, which set the peak
    sums = np.zeros((1 + n, size))
    sums[0, kept] = xi
    sums[1:, kept] = rho.T
    sums.flags.writeable = False
    return sums


def _cell_list(varifold, s, reach):
    """The cell list of the groups, cached on the varifold per reach."""
    key = ("cell_list", reach)
    if key not in varifold._caches:
        centres = varifold.positions if s is None else varifold.cell_centers()
        varifold._caches[key] = CellList(centres, reach)
    return varifold._caches[key]


def _sorted_groups(varifold, cells, reach):
    """The group masses and projector columns in the cell list's sorted
    order, column k of the group at sorted position i being entry (k, i):
    what the per-pair path contracts with. Cached beside the cell list and
    built by the first query with a per-pair probe, so a query on nodes
    only builds neither."""
    key = ("sorted_groups", reach)
    if key not in varifold._caches:
        n, order = varifold.n, cells.order
        columns = np.empty((n, len(order), n))
        for k in range(n):
            # order is in range, and "clip" skips the buffer of "raise"
            np.take(varifold.projectors[:, :, k], order, axis=0,
                    out=columns[k], mode="clip")
        varifold._caches[key] = (np.take(varifold.masses, order), columns)
    return varifold._caches[key]


def _chunk_sums(varifold, query, atoms, points, indptr, pos, dist_sq):
    """First variation and mass at a run of probes, pair by pair.

    ``atoms`` is (cell-list order or None, per-axis atom coordinates, mass
    of each atom of a group, projector columns by sorted position). A
    volumetric (probe, cell) pair expands to the s^n subcell nodes
    ``g * s^n`` to ``(g + 1) * s^n - 1`` of cell g = ``order[pos]``; an
    atomic pair (order None) is the atom at sorted position ``pos`` and
    keeps the search's squared distance. Displacements are computed for
    the atoms within eps alone.
    Pairs with |x_j - y| <= eps form a CSR matrix c over (probe, group) of
    their kernels: the mass is ``(c @ masses) eps^-n``, and axis k's
    weights add ``c @ columns[k]``. Each product adds a row's entries in
    stored order from 0.0, so every probe sums in the order of its row,
    whatever run it is in.
    """
    from scipy.sparse import csr_matrix

    order, nodes, masses, columns = atoms
    n, eps, pair = varifold.n, query.epsilon, query.pair
    atom = groups = pos
    if order is not None:
        size = nodes.shape[1] // len(masses)
        atom = (np.take(order, pos)[:, None] * size + np.arange(size)).ravel()
        groups = np.repeat(pos, size)
        indptr = indptr * size
        dist_sq = squared_distances(nodes, atom, points, np.diff(indptr))
    r = np.sqrt(dist_sq)
    if len(r) and r.max() > eps:
        near = np.flatnonzero(r <= eps)
        indptr = np.searchsorted(near, indptr)
        atom, groups = np.take(atom, near), np.take(groups, near)
        r = np.take(r, near)
    diff = displacements(nodes, atom, points, np.diff(indptr))
    u = r / eps
    # grad rho_eps(w) = eps^-(n+1) rho'(|w|/eps) w/|w|, zero at w=0
    w = np.take(masses, groups) * pair.rho.derivative(u) / np.maximum(r, 1e-300)
    w *= eps ** (-(n + 1))
    c = csr_matrix((pair.xi(u), groups, indptr),
                   shape=(len(indptr) - 1, len(masses)))
    den = (c @ masses) * eps ** (-n)
    num = np.zeros((len(indptr) - 1, n))
    for k in range(n):
        c.data = w * diff[k]
        num += c @ columns[k]
    return num, den


def _node_chunk_sums(varifold, query, table, probe_base, indptr, cells):
    """First variation and mass at a run of node probes, cell by cell.

    Each (probe, cell) pair of the run's CSR structure gathers its cell's
    subcell sums from the offset table at ``probe_base + cell_base``, the
    flat index of its (subnode, offset) entry, and weighs them with the
    cell's mass and mass-weighted projector. Each probe's pairs are one
    contiguous row, summed by ``np.add.reduceat``, so its rounding depends
    on that row alone.
    """
    sums, cell_base, weighted = table
    n = varifold.n
    at = np.take(cell_base, cells)
    at += np.repeat(probe_base, np.diff(indptr))
    # a probe at a node of an empty cell may have no cell within reach;
    # its row is empty and sums to zero, which reduceat does not give
    rows = np.flatnonzero(indptr[:-1] < indptr[1:])
    starts = indptr[rows]
    totals = np.zeros((1 + n, len(indptr) - 1))
    terms = np.take(sums[0], at) * np.take(varifold.masses, cells)
    totals[0, rows] = np.add.reduceat(terms, starts)
    rho = [np.take(sums[1 + k], at) for k in range(n)]
    for i in range(n):
        terms = np.take(weighted[i, 0], cells) * rho[0]
        for k in range(1, n):
            terms += np.take(weighted[i, k], cells) * rho[k]
        totals[1 + i, rows] = np.add.reduceat(terms, starts)
    return totals[1:].T, totals[0] * query.epsilon ** (-n)


def _node_path(varifold, query, s, reach, points):
    """Probes that take the offset table, the table and their flat bases.

    Returns (mask, table, probe_base) with table = (offset table, flat
    offset base of each cell, (n, n, M) mass-weighted projectors of the
    cells, entry-major), or (all False, None, None). The table serves a
    volumetric varifold probed at any of its own quadrature nodes, unless
    its box of offsets, K = ceil(reach / edge) + 1 cells each way, exceeds
    ``_TABLE_BUDGET`` as it reads at the call.
    """
    off = np.zeros(len(points), dtype=bool)
    if s is None:
        return off, None, None
    nodes, cell, sub = varifold.quadrature_index(points)
    if not nodes.any():
        return off, None, None
    n, s_p, edge = varifold.n, varifold.subdivisions, varifold.mesh.edge
    big_k = math.ceil(reach / edge) + 1
    side = 2 * big_k + 1
    if (s_p * side * s) ** n > _TABLE_BUDGET:
        return off, None, None
    key = (edge, n, s_p, s, reach, query.pair, query.epsilon)
    if key not in query._tables:
        query._tables[key] = _offset_table(varifold, query, s, big_k)
    strides = side ** np.arange(n - 1, -1, -1)
    # flat index of (p, k + K) is p side^n + (k + K) . strides with
    # k = cell - probe cell: split into a probe part and a cell part
    subnode = np.ravel_multi_index(tuple(sub.T), (s_p,) * n)
    probe_base = subnode * side**n + (big_k - cell) @ strides
    # entry (i, k) of every cell's mass-weighted projector, contiguous
    weighted = np.ascontiguousarray(np.moveaxis(
        varifold.masses[:, None, None] * varifold.projectors, 0, 2))
    table = (query._tables[key], varifold.cell_indices @ strides, weighted)
    return nodes, table, probe_base


def _pair_sums(varifold, query, points):
    """Regularized first variation and mass at each point: ((P, n), (P,))."""
    n = varifold.n
    points = np.ascontiguousarray(points, dtype=float)
    if points.shape[1] != n:
        raise ValueError(f"query points must have dimension {n}")
    bad = np.flatnonzero(~np.all(np.isfinite(points), axis=1))
    if len(bad):
        raise ValueError(f"query points must be finite; row {bad[0]} is "
                         f"{points[bad[0]]}")
    s, size, spread = _groups(varifold, query)
    reach = (query.epsilon + spread) * (1.0 + _REACH_SLACK)
    cells = _cell_list(varifold, s, reach)
    num = np.zeros((len(points), n))
    den = np.zeros(len(points))
    nodes, table, probe_base = _node_path(varifold, query, s, reach, points)
    atoms = None
    if not nodes.all():
        masses, columns = _sorted_groups(varifold, cells, reach)
        atoms = (None, cells.columns, masses, columns)
        if s is not None:
            atoms = (cells.order, varifold.quadrature_points(s)[0].T,
                     masses / size, columns)
    # (probes, run budget, atoms per candidate group, sums over a run's
    # pairs): candidate counts times atoms per group bound a probe's pairs
    paths = (
        (~nodes, _PAIR_BUDGET, size, lambda run, *pairs: _chunk_sums(
            varifold, query, atoms, points[run], *pairs)),
        (nodes, _NODE_BUDGET, 1, lambda run, indptr, pos, *_:
            _node_chunk_sums(varifold, query, table, probe_base[run], indptr,
                             np.take(cells.order, pos))),
    )
    for select, budget, per_group, sums in paths:
        at = np.flatnonzero(select)
        for run, *pairs in cells.runs(points[at], budget, per_group):
            run = at[run]
            num[run], den[run] = sums(run, *pairs)
            del pairs  # before the search builds the next run's
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

"""Distances and regularity diagnostics for discrete measures.

The bounded-Lipschitz (flat) distance between finite measures mu and nu is

    sup { integral of phi d(mu - nu) : sup|phi| + lip(phi) <= 1 }.

For atomic measures the supremum is attained by a function defined on the
union support, so it is an exact linear program over the atom values. Of
the slope constraints only those running from an atom where mu - nu is
positive to one where it is negative are kept: by Kantorovich-Rubinstein
duality the dual of the program transports the positive part of mu - nu
onto the negative part with a ground slack, and by the triangle inequality
an optimal plan never routes mass through a third atom, so no other slope
constraint can be active. Pruning by distance instead is invalid: dropping
constraints between distant atoms changes the optimum (two unit atoms at
distance 3 have distance 6/5, not 2).

Of the two sign constraints |phi_i| <= a of each atom only one can bind:
phi_p <= a where mu - nu is positive, -phi_q <= a where it is negative. A
positive atom below -a can be raised to -a without breaking a slope row,
since its negative partners sit at or above -a, and raising it raises the
objective; negative atoms mirror this. With c_i the mass of mu - nu at
atom i and phi_i = sign(c_i) (a - psi_i), the kept one is the variable
bound psi_i >= 0 (Dantzig's bounded-variable simplex), so the solver holds
no sign rows at all.

The positive x negative slope rows are not all handed to the solver at
once; they are generated (Dantzig, Fulkerson and Johnson's constraint
generation). The program starts with the rows from each positive atom to
its nearest negative atoms, and each round adds the rows the last solution
violates most. A solution of the reduced program that violates no row
solves the full one, so the distance stays exact while the solver holds
only the rows that bind, which the dual's transport keeps between nearby
atoms. The violation check and the start-set search hold one block of atom
pairs at a time, so memory follows the kept rows, which ``MAX_SLOPE_ROWS``
caps.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "AtomicMeasure",
    "atomize",
    "bounded_lipschitz_distance",
    "ahlfors_estimate",
    "ahlfors_scan",
]

# Largest number of slope rows one HiGHS solve of the distance LP may hold.
# Peak memory grows by about 1.6 KiB per slope row (HiGHS through scipy
# 1.17.1 on x86-64, 40,000 to 360,000 rows), so the cap keeps one solve near
# 1.6 GiB.
MAX_SLOPE_ROWS = 1_000_000
# Slope rows each positive atom starts with (to its nearest negative atoms)
# and most rows it gains per round (its most violated ones).
_ROWS_PER_ATOM = 8
# Excess phi_p - phi_q - L d_pq above which a slope row counts as violated.
_VIOLATION_TOL = 1e-12
# Atom pairs whose distances one block of the row search holds at once.
_PAIR_BLOCK = 1 << 16


def __getattr__(name):
    # scipy.optimize loads on the first use of ``linprog`` (PEP 562), so
    # importing the package does not pay for it
    if name == "linprog":
        from scipy.optimize import linprog

        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class AtomicMeasure:
    """Finite nonnegative measure supported on finitely many points.

    May be empty (the zero measure). Zero-mass atoms are dropped.
    """

    def __init__(self, positions, masses):
        positions = np.ascontiguousarray(positions, dtype=float)
        masses = np.ascontiguousarray(masses, dtype=float)
        if positions.ndim != 2:
            raise ValueError("positions must be (N, n)")
        if masses.shape != (len(positions),):
            raise ValueError("masses must be (N,)")
        if np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(masses))):
            raise ValueError("non-finite values in measure data")
        keep = masses > 0
        positions, masses = positions[keep], masses[keep]
        for arr in (positions, masses):
            arr.flags.writeable = False
        self.positions = positions
        self.masses = masses

    @classmethod
    def zero(cls, n):
        return cls(np.zeros((0, n)), np.zeros(0))

    @property
    def n(self):
        return self.positions.shape[1]

    def __len__(self):
        return len(self.masses)

    def total_mass(self):
        return float(np.sum(self.masses))


def atomize(obj, subdivisions=None):
    """Spatial mass measure of a varifold (or sample) as an atomic measure.

    ``obj`` is an ``AtomicMeasure`` (returned as is) or any set with
    ``mass_atoms()``. Volumetric varifolds are expanded to their midpoint
    subcell nodes, each node carrying an equal share of its cell's mass; the
    node cloud lies within ``mesh.h`` of any point of the represented
    measure.
    """
    if isinstance(obj, AtomicMeasure):
        return obj
    return AtomicMeasure(*obj.mass_atoms(subdivisions))


def _merged_signed_difference(mu, nu):
    """Union support and per-point signed mass difference, duplicates merged."""
    pts = np.vstack([mu.positions, nu.positions])
    signed = np.concatenate([mu.masses, -nu.masses])
    if len(pts) == 0:
        return pts, signed
    order = np.lexsort(pts.T[::-1])
    pts, signed = pts[order], signed[order]
    new = np.r_[True, np.any(pts[1:] != pts[:-1], axis=1)]
    group = np.cumsum(new) - 1
    unique_pts = pts[new]
    sums = np.zeros(len(unique_pts))
    np.add.at(sums, group, signed)
    return unique_pts, sums


def _pair_distances(pts, pos, neg):
    """Distances from blocks of positive atoms to every negative atom.

    Yields ``(first, dist)`` with ``dist[i, j] = |x_pos[first + i] -
    x_neg[j]|``. A block holds at most ``_PAIR_BLOCK`` pairs, or one
    positive atom's row when that is longer, so memory does not grow with
    |P| |N|.
    """
    targets = pts[neg]
    step = max(1, _PAIR_BLOCK // len(neg))
    for first in range(0, len(pos), step):
        diff = pts[pos[first:first + step], None, :] - targets[None, :, :]
        yield first, np.sqrt(np.einsum("pqi,pqi->pq", diff, diff))


def _top_rows(scores, first, count):
    """Keys (positive x |N| + negative) and columns of each row's largest
    ``count`` scores, every column when there are no more than ``count``."""
    rows, width = scores.shape
    if width <= count:
        cols = np.tile(np.arange(width), rows)
    else:
        cols = np.argpartition(scores, width - count, axis=1)[:, -count:]
        cols = np.sort(cols, axis=1).ravel()
    local = np.repeat(np.arange(rows), min(width, count))
    return (first + local) * width + cols, local, cols


def _start_rows(pts, pos, neg):
    """Slope rows from each positive atom to its nearest negative atoms."""
    keys, dist = [], []
    for first, block in _pair_distances(pts, pos, neg):
        key, local, cols = _top_rows(-block, first, _ROWS_PER_ATOM)
        keys.append(key)
        dist.append(block[local, cols])
    return np.concatenate(keys), np.concatenate(dist)


def _violated_rows(pts, pos, neg, phi, lip, kept):
    """The most violated slope rows not in ``kept`` (sorted keys), with
    excess phi_p - phi_q - lip d_pq above ``_VIOLATION_TOL``: at most
    ``_ROWS_PER_ATOM`` per positive atom."""
    keys, dist = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    width = len(neg)
    phi_neg = phi[neg]
    for first, block in _pair_distances(pts, pos, neg):
        rows = len(block)
        excess = phi[pos[first:first + rows], None] - phi_neg[None, :]
        excess -= lip * block
        lo, hi = np.searchsorted(kept, [first * width, (first + rows) * width])
        np.put(excess, kept[lo:hi] - first * width, -np.inf)
        # a block that violates no row (every block, in the last round)
        # takes no partition
        if excess.max() <= _VIOLATION_TOL:
            continue
        key, local, cols = _top_rows(excess, first, _ROWS_PER_ATOM)
        hit = excess[local, cols] > _VIOLATION_TOL
        keys.append(key[hit])
        dist.append(block[local[hit], cols[hit]])
    return np.concatenate(keys), np.concatenate(dist)


def _solve_rows(pts, c, pi, qi, d):
    """Solve the distance LP with the given slope rows; returns the optimal
    (phi, L, value)."""
    # scipy.optimize, which linprog needs anyway, loads scipy.sparse
    from scipy import sparse

    k = len(pts)
    m = len(d)
    # variables: psi_1..psi_k with phi_i = sign(c_i) (a - psi_i), a (sup
    # bound), L (lipschitz bound); psi_i >= 0 is atom i's one sign row that
    # can bind, and psi_i is fixed at 0 where c_i = 0; rows: 2a - psi_p -
    # psi_q - L d_pq <= 0 for each slope row, a + L <= 1
    slope = np.arange(m)
    rows = np.concatenate([slope, slope, slope, slope, [m, m]])
    cols = np.concatenate(
        [pi, qi, np.full(m, k), np.full(m, k + 1), [k, k + 1]]
    )
    vals = np.concatenate([-np.ones(2 * m), np.full(m, 2.0), -d, [1.0, 1.0]])
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(m + 1, k + 2))
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    weight = np.abs(c)
    # linprog minimizes -sum_i c_i phi_i = sum_i |c_i| psi_i - a sum_i |c_i|
    objective = np.concatenate([weight, [-weight.sum(), 0.0]])
    bounds = np.zeros((k + 2, 2))
    bounds[:k, 1] = np.where(c == 0, 0.0, np.inf)
    bounds[k:, 1] = 1.0
    # looked up on the module, where a test or profiler may replace it;
    # presolve removes little from this program and costs more than it saves
    res = sys.modules[__name__].linprog(
        objective, A_ub=a_ub, b_ub=rhs, bounds=bounds, method="highs",
        options={"presolve": False},
    )
    if res.status != 0:
        raise RuntimeError(f"distance LP failed: {res.message}")
    a, lip = res.x[k], res.x[k + 1]
    return np.sign(c) * (a - res.x[:k]), lip, float(-res.fun)


def bounded_lipschitz_distance(mu, nu):
    """Exact bounded-Lipschitz distance between two atomic measures.

    Solves the defining linear program on the union support with the HiGHS
    solver. Its variables are the test-function values phi, their sup bound
    a and their Lipschitz bound L; its constraints are a + L <= 1, slope
    rows phi_p - phi_q <= L |x_p - x_q| for atoms p where mu - nu is
    positive and q where it is negative, and one sign constraint per atom,
    phi_p <= a or -phi_q <= a. No other slope row can bind (see the module
    docstring): the clipped McShane extension max(-a, min(a, min_q (phi_q
    + L |x - x_q|))) of a solution satisfies every slope row and is at
    least phi on the positive atoms and at most phi on the negative ones.
    Nor can the other sign constraint: a positive atom below -a may rise
    to -a, which breaks no slope row and raises the objective, and a
    negative atom mirrors it. Written in psi_i >= 0 with phi_i =
    sign(c_i) (a - psi_i), c_i the mass of mu - nu at atom i, the sign
    constraints are variable bounds and each slope row reads 2a - psi_p -
    psi_q <= L |x_p - x_q|; an atom where mu and nu cancel has its psi
    fixed at 0. Pairs may not be pruned by distance: two unit
    atoms at distance 3 are at BL distance 6/5, not 2.

    The slope rows are generated: the program starts with the rows from
    each positive atom to its ``_ROWS_PER_ATOM`` nearest negative atoms,
    and each round adds, per positive atom, up to that many of the rows its
    solution violates most. Dropping rows only relaxes the program, so its
    optimum is at least the full one; a solution that violates no row is
    feasible for the full program, hence optimal, and the loop stops there.

    Raises ValueError when a round would hand HiGHS more than
    ``MAX_SLOPE_ROWS`` slope rows.
    """
    mu = atomize(mu)
    nu = atomize(nu)
    if len(mu) and len(nu) and mu.n != nu.n:
        raise ValueError("measures live in different ambient dimensions")
    pts, c = _merged_signed_difference(mu, nu)
    if len(pts) == 0 or np.all(c == 0):
        return 0.0
    pos = np.flatnonzero(c > 0)
    neg = np.flatnonzero(c < 0)
    pairs = len(pos) * len(neg)
    if pairs:
        keys, dist = _start_rows(pts, pos, neg)
    else:
        keys, dist = np.zeros(0, dtype=np.int64), np.zeros(0)
    width = max(len(neg), 1)
    while True:
        if len(keys) > MAX_SLOPE_ROWS:
            raise ValueError(
                f"distance LP needs {len(keys)} slope rows for {len(pos)} "
                f"positive x {len(neg)} negative atoms, over the cap of "
                f"MAX_SLOPE_ROWS = {MAX_SLOPE_ROWS}"
            )
        phi, lip, value = _solve_rows(
            pts, c, pos[keys // width], neg[keys % width], dist
        )
        if len(keys) == pairs:
            return value
        new_keys, new_dist = _violated_rows(pts, pos, neg, phi, lip, keys)
        if not len(new_keys):
            return value
        keys = np.concatenate([keys, new_keys])
        dist = np.concatenate([dist, new_dist])
        order = np.argsort(keys)
        keys, dist = keys[order], dist[order]


def _probe_indices(count, max_probes):
    if count <= max_probes:
        return np.arange(count)
    return np.unique(np.linspace(0, count - 1, max_probes).round().astype(int))


def ahlfors_scan(obj, d, radii, max_probes=64):
    """Ball-mass ratios mass(B(x, r)) / r^d over support probes and radii.

    The probes are an even subsample of at most ``max_probes`` support
    atoms. Returns a list of (probe, radius, ball_mass, ratio) tuples where
    the ratio is max(mass / r^d, r^d / mass), the two-sided regularity
    defect.
    """
    measure = atomize(obj)
    if len(measure) == 0:
        raise ValueError("cannot scan an empty measure")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    if max_probes < 1:
        raise ValueError(f"max_probes must be >= 1, not {max_probes}")
    probes = measure.positions[_probe_indices(len(measure), max_probes)]
    rows = []
    for p in range(len(probes)):
        diff = measure.positions - probes[p]
        dist = np.sqrt(np.einsum("mi,mi->m", diff, diff))
        for r in radii:
            ball = float(np.sum(measure.masses[dist <= r]))
            scale = r**d
            ratio = max(ball / scale, scale / ball)
            rows.append((probes[p], float(r), ball, float(ratio)))
    return rows


def ahlfors_estimate(obj, d, radii, max_probes=64):
    """Largest two-sided ball-mass ratio: an empirical regularity constant."""
    rows = ahlfors_scan(obj, d, radii, max_probes=max_probes)
    return max(row[3] for row in rows)

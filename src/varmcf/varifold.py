"""Varifold representations: weighted atoms and volumetric cell measures.

A varifold here is a finite nonnegative measure on position x tangent-plane
pairs. Atomic representations store (position, projector, mass) triples;
the volumetric representation spreads each cell's mass uniformly over the
cell, paired with a single per-cell plane. All types are immutable after
construction, and evaluation callables are expected to accept batched numpy
arrays: test functions map (N, n) points to (N,) values, fields additionally
expose a ``jacobian`` method mapping (N, n) to (N, n, n).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PointCloudVarifold",
    "SampledManifoldVarifold",
    "VolumetricVarifold",
]

_PROJ_TOL = 1e-10


def _validate_projectors(proj, d):
    """Reject an empty stack, or (N, n, n) finite projectors that are not
    symmetric within 1e-12, idempotent within 1e-10 or of trace d within
    1e-10. Works entry by entry on length-N columns."""
    if not len(proj):
        raise ValueError("no projectors to validate")
    n = proj.shape[-1]
    # entry (i, j) of every projector as one contiguous column
    p = np.moveaxis(proj, 0, -1).copy()

    def worst(gaps):
        return max((np.max(np.abs(gap)) for gap in gaps), default=0.0)

    if worst(p[i, j] - p[j, i] for i in range(n) for j in range(i)) > 1e-12:
        raise ValueError("projectors must be symmetric within 1e-12")
    if worst(sum(p[i, k] * p[k, j] for k in range(n)) - p[i, j]
             for i in range(n) for j in range(n)) > _PROJ_TOL:
        raise ValueError("projectors must be idempotent within 1e-10")
    if worst([sum(p[i, i] for i in range(n)) - d]) > _PROJ_TOL:
        raise ValueError(f"projector traces must equal {d} within 1e-10")


def _frozen_atoms(masses, *arrays):
    """Check the masses and per-atom arrays of a set of atoms; freeze them.

    Raises ValueError on a non-finite value or a negative mass, and drops
    the zero-mass atoms. An array that loses no atom and is read-only and
    owns its data is kept: only switching its flag back on could write it,
    as with a frozen copy. Every other array is copied, so that a caller's
    writable array stays writable. Returns read-only (masses, *arrays).
    """
    arrays = (masses,) + arrays
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("non-finite values in atom data")
    if np.any(masses < 0):
        raise ValueError("masses must be nonnegative")
    keep = masses > 0
    whole = keep.all()
    arrays = tuple(
        a[keep] if not whole
        else a if not a.flags.writeable and a.flags.owndata
        else a.copy()
        for a in arrays
    )
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _plane_dim(projectors):
    """Dimension of the planes of rank-d projectors: the first one's trace."""
    if len(projectors) == 0:
        raise ValueError("cannot infer the dimension of an empty set")
    return int(round(float(np.trace(projectors[0]))))


def _row_steps(rows):
    """Per pair of consecutive integer rows, a number with the sign of the
    step between them in row-major order: the first axis that moves decides
    it, since each axis's weight exceeds the sum of those after it."""
    n = rows.shape[1]
    return np.sign(np.diff(rows, axis=0)) @ (1 << np.arange(n - 1, -1, -1))


class _WeightedAtoms:
    """The varifold integrals of a set given by ``atoms()``.

    ``atoms()`` returns read-only (positions, projectors, masses) of shapes
    (N, n), (N, n, n) and (N,); every integral is a mass-weighted sum over
    these atoms. ``mass_atoms`` gives the positions and masses alone, for
    integrals that do not read the planes.

    The varifolds keep derived arrays (quadrature nodes, atoms, and the
    curvature engine's cell lists with masses and projector columns in
    their order) in ``_caches``, filled by check-then-set without a lock:
    threads that miss together each compute the same deterministic value
    and one is kept, so a race can only repeat work.
    """

    __slots__ = ()

    def mass_atoms(self):
        """The (positions, masses) of ``atoms()``."""
        pts, _, masses = self.atoms()
        return pts, masses

    def mass_total(self):
        """Total mass of the spatial measure."""
        return float(np.sum(self.mass_atoms()[1]))

    def mass_apply(self, phi):
        """Integrate a scalar function of position against the mass measure."""
        pts, masses = self.mass_atoms()
        return float(np.sum(masses * np.asarray(phi(pts))))

    def varifold_apply(self, f):
        """Integrate f(position, plane) against the full varifold."""
        pts, proj, masses = self.atoms()
        return float(np.sum(masses * np.asarray(f(pts, proj))))

    def first_variation(self, field):
        """Integral of the tangential divergence of a C^1 vector field.

        The tangential divergence at an atom is trace(P J) with J the field
        Jacobian; for a sampled closed surface this equals -int H . X up to
        quadrature error.
        """
        pts, proj, masses = self.atoms()
        jac = np.asarray(field.jacobian(pts))
        div = np.einsum("kij,kji->k", proj, jac)
        return float(np.sum(masses * div))


class PointCloudVarifold(_WeightedAtoms):
    """Varifold supported on an unstructured weighted point cloud."""

    def __init__(self, positions, projectors, masses, dim=None):
        positions = np.ascontiguousarray(positions, dtype=float)
        projectors = np.ascontiguousarray(projectors, dtype=float)
        masses = np.ascontiguousarray(masses, dtype=float)
        if positions.ndim != 2:
            raise ValueError("positions must be (N, n)")
        n = positions.shape[1]
        if projectors.shape != (len(positions), n, n):
            raise ValueError("projectors must be (N, n, n)")
        if masses.shape != (len(positions),):
            raise ValueError("masses must be (N,)")
        masses, positions, projectors = _frozen_atoms(
            masses, positions, projectors
        )
        if dim is None:
            dim = _plane_dim(projectors)
        _validate_projectors(projectors, dim)
        self.positions = positions
        self.projectors = projectors
        self.masses = masses
        self.d = int(dim)
        self._caches = {}

    @property
    def n(self):
        return self.positions.shape[1]

    def __len__(self):
        return len(self.masses)

    def atoms(self):
        """The stored (positions, projectors, masses), without a copy."""
        return self.positions, self.projectors, self.masses


class SampledManifoldVarifold(PointCloudVarifold):
    """Varifold induced by a quadrature sample of an analytic shape."""

    def __init__(self, sample):
        super().__init__(
            sample.positions, sample.projectors, sample.weights, dim=sample.dim
        )


class VolumetricVarifold(_WeightedAtoms):
    """Cell-based varifold: per cell a mass and a single tangent plane.

    The spatial measure restricted to a cell is Lebesgue measure rescaled to
    carry the cell mass; integrals are evaluated with a midpoint rule on
    ``subdivisions`` subcells per axis, i.e. over ``atoms()``.

    Parameters
    ----------
    mesh : Mesh
        Uniform cubical mesh the cell indices refer to.
    cell_indices : (M, n) int array
        Integer grid coordinates of the occupied cells.
    masses : (M,) array
        Cell masses; zero-mass cells are dropped.
    projectors : (M, n, n) array
        Per-cell tangent projectors.
    """

    def __init__(self, mesh, cell_indices, masses, projectors,
                 subdivisions=2):
        cell_indices = np.ascontiguousarray(cell_indices, dtype=np.int64)
        masses = np.ascontiguousarray(masses, dtype=float)
        projectors = np.ascontiguousarray(projectors, dtype=float)
        if cell_indices.ndim != 2:
            raise ValueError("cell_indices must be (M, n)")
        m, n = cell_indices.shape
        if masses.shape != (m,) or projectors.shape != (m, n, n):
            raise ValueError("inconsistent cell array shapes")
        # Normalize storage order so evaluation is independent of input order;
        # rows that strictly increase, as discretize's do, need no sort.
        ordered = np.all(_row_steps(cell_indices) > 0)
        if not ordered:
            order = np.lexsort(cell_indices.T[::-1])
            cell_indices, masses, projectors = (
                cell_indices[order], masses[order], projectors[order]
            )
        masses, cell_indices, projectors = _frozen_atoms(
            masses, cell_indices, projectors
        )
        # zero-mass cells are dropped before duplicates are looked for
        if not ordered and np.any(_row_steps(cell_indices) == 0):
            raise ValueError("duplicate cell indices")
        if len(masses) == 0:
            raise ValueError("volumetric varifold has no cells")
        d = _plane_dim(projectors)
        _validate_projectors(projectors, d)
        subdivisions = int(subdivisions)
        if subdivisions < 1:
            raise ValueError("subdivisions must be >= 1")
        self.mesh = mesh
        self.cell_indices = cell_indices
        self.masses = masses
        self.projectors = projectors
        self.d = d
        self.subdivisions = subdivisions
        self._caches = {}

    @property
    def n(self):
        return self.cell_indices.shape[1]

    @property
    def h(self):
        """Cell diameter bound of the underlying mesh."""
        return self.mesh.h

    def __len__(self):
        return len(self.masses)

    def cell_centers(self):
        return self.mesh.cell_center(self.cell_indices)

    def _node(self, cell, sub, s):
        """Node of subcell ``sub`` (per-axis index) of grid cell ``cell``
        at s subdivisions per axis: the one formula for quadrature nodes."""
        mesh = self.mesh
        return (mesh.origin + cell * mesh.edge) + (sub + 0.5) * (mesh.edge / s)

    def quadrature_points(self, subdivisions=None):
        """Midpoint subcell quadrature nodes, (M * s^n, n), cell-major.

        Returns (points, cell_index_of_point). Cached per subdivision count.
        """
        s = self.subdivisions if subdivisions is None else int(subdivisions)
        if s < 1:
            raise ValueError("subdivisions must be >= 1")
        key = ("quadrature", s)
        if key not in self._caches:
            n = self.n
            grids = np.meshgrid(*([np.arange(s)] * n), indexing="ij")
            sub = np.stack([g.reshape(-1) for g in grids], axis=1)
            pts = self._node(self.cell_indices[:, None, :], sub[None], s)
            owner = np.repeat(np.arange(len(self)), s**n)
            pts = pts.reshape(-1, n)
            pts.flags.writeable = False
            owner.flags.writeable = False
            self._caches[key] = (pts, owner)
        return self._caches[key]

    def quadrature_index(self, points):
        """Which points are the varifold's own quadrature nodes (at its
        ``subdivisions``), and of which cell and subcell.

        Returns (mask, cell, sub) with (P, n) integer grid coordinates of
        the cell and per-axis subcell indices recovered from each point; a
        point is a node if it is bitwise equal to the node computed for
        them, as ``quadrature_points`` computes it. The cell need not be
        occupied. Non-finite and far-off points are not nodes.
        """
        s = self.subdivisions
        points = np.asarray(points, dtype=float)
        with np.errstate(invalid="ignore"):
            t = np.floor((points - self.mesh.origin) / (self.mesh.edge / s))
            # nan and inf fail the comparison
            ok = np.all(np.abs(t) < 2.0**52, axis=1)
        t = np.where(ok[:, None], t, 0.0).astype(np.int64)
        cell, sub = np.divmod(t, s)
        ok &= np.all(self._node(cell, sub, s) == points, axis=1)
        return ok, cell, sub

    def mass_atoms(self):
        """The nodes and masses of ``atoms()``, without its per-node
        projectors: each node carries 1 / s^n of its cell's mass. Only the
        nodes are cached."""
        pts, _ = self.quadrature_points()
        per_cell = len(pts) // len(self)
        return pts, np.repeat(self.masses / per_cell, per_cell)

    def atoms(self):
        """The varifold as weighted atoms, one per subcell quadrature node.

        Returns read-only (points, projectors, masses) of shapes
        (M * s^n, n), (M * s^n, n, n) and (M * s^n,) with s the varifold's
        ``subdivisions``: each node carries its cell's plane and an equal
        share 1 / s^n of its cell's mass. Cached.
        """
        s = self.subdivisions
        key = ("atoms", s)
        if key not in self._caches:
            pts, masses = self.mass_atoms()
            proj = np.repeat(self.projectors, s**self.n, axis=0)
            for arr in (proj, masses):
                arr.flags.writeable = False
            self._caches[key] = (pts, proj, masses)
        return self._caches[key]


"""Uniform cubical meshes and the binning of samples into cell varifolds.

``discretize`` collapses a weighted surface sample to one (mass, plane)
pair per occupied mesh cell: the mass is the summed weight, the plane is
the one closest in Frobenius norm to the mass-weighted mean projector,
i.e. the span of its top eigenvectors. The cell diameter ``mesh.h``
controls how far any sample point can sit from its cell's quadrature
nodes, which is what the measure-approximation guarantees are written in
terms of.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .varifold import VolumetricVarifold, _plane_dim

__all__ = [
    "Mesh",
    "discretize",
    "tangent_fit_quality",
    "write_cells_csv",
    "read_cells_csv",
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

    @classmethod
    def covering(cls, points, edge, pad=0.0):
        """Mesh over the bounding box of a point set, inflated by ``pad``."""
        points = np.asarray(points, dtype=float)
        return cls(points.min(axis=0) - pad, points.max(axis=0) + pad, edge)

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
        """
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (self.n,):
            raise ValueError(f"points must have dimension {self.n}")
        if self.num_cells() > np.iinfo(np.int64).max:
            raise ValueError(f"{self.num_cells()} cells overflow int64 keys")
        slack = 1e-9 * self.edge
        lo, hi = self.origin - slack, self.upper + slack
        flat = points.reshape(-1, self.n)
        columns = [flat[:, k] for k in range(self.n)]
        # min and max are nan if any entry is, which fails the comparison
        if not all(col.size == 0 or (np.min(col) >= lo[k]
                                     and np.max(col) <= hi[k])
                   for k, col in enumerate(columns)):
            inside = np.ones(len(columns[0]), dtype=bool)
            for k, col in enumerate(columns):
                inside &= col >= lo[k]
                inside &= col <= hi[k]
            bad = int(np.sum(~inside))
            raise ValueError(f"{bad} point(s) lie outside the mesh box")
        keys = np.zeros(len(flat), dtype=np.int64)
        for k, col in enumerate(columns):
            cell = np.subtract(col, self.origin[k])
            cell /= self.edge
            cell = np.floor(cell, out=cell).astype(np.int64)
            np.clip(cell, 0, self.counts[k] - 1, out=cell)
            keys *= self.counts[k]
            keys += cell
        return keys.reshape(points.shape[:-1])

    def cell_center(self, indices):
        return self.origin + (np.asarray(indices) + 0.5) * self.edge


def discretize(sample, mesh, subdivisions=2):
    """Bin a weighted sample into a :class:`VolumetricVarifold`.

    ``sample`` is any set with ``atoms()``: a ``WeightedSample`` or an
    atomic varifold. The grouping does not depend on the order of the
    points: the same cells hold the same points. Each cell sums its points
    in sample order (a stable sort groups them), so a permuted sample gives
    masses and planes that agree up to rounding, not bitwise.
    """
    positions, projectors, weights = sample.atoms()
    d = _plane_dim(projectors)
    if positions.shape[1] != mesh.n:
        raise ValueError(
            f"sample dimension {positions.shape[1]} != mesh dimension {mesh.n}"
        )

    keys = mesh.cell_keys(positions)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    )

    w_sorted = np.take(weights, order)
    cell_mass = np.add.reduceat(w_sorted, starts)
    # projector entries as (N, n * n) rows
    n = mesh.n
    entries = np.take(projectors.reshape(-1, n * n), order, axis=0)
    entries *= w_sorted[:, None]
    proj_sum = np.add.reduceat(entries, starts, axis=0)

    keep = cell_mass > 0
    cell_mass = cell_mass[keep]
    mean = proj_sum[keep] / cell_mass[:, None]
    # entry (i, j) averaged with entry (j, i)
    mean = 0.5 * (mean + mean[:, np.arange(n * n).reshape(n, n).T.ravel()])
    mean_proj = mean.reshape(-1, n, n)
    cell_idx = np.stack(
        np.unravel_index(sorted_keys[starts][keep], mesh.counts), axis=1
    )

    # Frobenius-nearest rank-d projector: span of the top-d eigenvectors.
    _, vecs = np.linalg.eigh(mean_proj)
    top = vecs[..., -d:]
    cell_proj = np.einsum("kia,kja->kij", top, top)

    return VolumetricVarifold(
        mesh, cell_idx, cell_mass, cell_proj, subdivisions=subdivisions
    )


def tangent_fit_quality(sample, volumetric):
    """Mass-weighted mean Frobenius distance from sample planes to cell planes.

    Measures how well a single plane per cell represents the sample's
    tangent field; decays linearly in the cell size for smooth surfaces.
    """
    positions, projectors, weights = sample.atoms()
    mesh = volumetric.mesh
    lin = mesh.cell_keys(positions)
    cell_lin = np.ravel_multi_index(
        tuple(volumetric.cell_indices.T), tuple(mesh.counts)
    )
    pos = np.searchsorted(cell_lin, lin)
    if np.any(pos >= len(cell_lin)) or np.any(cell_lin[pos] != lin):
        raise ValueError(
            "sample occupies a cell absent from the volumetric varifold"
        )
    diff = projectors - volumetric.projectors[pos]
    dist = np.sqrt(np.einsum("kij,kij->k", diff, diff))
    total = float(np.sum(weights))
    if total == 0:
        raise ValueError("sample has zero total weight")
    return float(np.sum(weights * dist)) / total


def write_cells_csv(volumetric, path):
    """Cell table: grid index, center, mass, projector entries (row-major).

    A leading comment line records the mesh geometry so the table can be
    read back without the originating mesh object.
    """
    mesh = volumetric.mesh
    n = volumetric.n
    origin_txt = " ".join(f"{v:.17g}" for v in mesh.origin)
    header = (
        [f"k{i + 1}" for i in range(n)]
        + [f"c{i + 1}" for i in range(n)]
        + ["mass"]
        + [f"p{i + 1}_{j + 1}" for i in range(n) for j in range(n)]
    )
    centers = volumetric.cell_centers()
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# edge={mesh.edge:.17g} origin={origin_txt} "
            f"subdivisions={volumetric.subdivisions}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(volumetric)):
            row = (
                [str(int(v)) for v in volumetric.cell_indices[k]]
                + [f"{v:.17g}" for v in centers[k]]
                + [f"{volumetric.masses[k]:.17g}"]
                + [f"{v:.17g}" for v in volumetric.projectors[k].reshape(-1)]
            )
            writer.writerow(row)


def read_cells_csv(path):
    """Rebuild a :class:`VolumetricVarifold` written by ``write_cells_csv``.

    The reconstructed mesh box is tight around the occupied cells.
    """
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError("missing mesh comment line")
        meta = {}
        key = None
        for tok in first[1:].split():
            if "=" in tok:
                key, _, val = tok.partition("=")
                meta.setdefault(key, []).append(val)
            elif key is None:
                raise ValueError(
                    f"mesh comment line has {tok!r} before any key="
                )
            else:
                # continuation of a vector-valued entry such as origin
                meta[key].append(tok)
        for name in ("edge", "origin", "subdivisions"):
            if name not in meta:
                raise ValueError(f"mesh comment line has no {name}=")
        edge = float(meta["edge"][0])
        origin = np.array([float(v) for v in meta["origin"]])
        subdivisions = int(meta["subdivisions"][0])
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("cell table has no header row") from None
        rows = list(reader)
    n = sum(1 for name in header if name.startswith("k"))
    if len(header) != 2 * n + 1 + n * n:
        raise ValueError("cell table header has unexpected column count")
    if not rows:
        raise ValueError("cell table has no cells")
    data = np.array([[float(v) for v in row] for row in rows])
    if data.shape[1] != len(header):
        raise ValueError("cell table row width does not match header")
    cell_idx = data[:, :n].astype(np.int64)
    masses = data[:, 2 * n]
    projectors = data[:, 2 * n + 1:].reshape(-1, n, n)
    hi = origin + (cell_idx.max(axis=0) + 1) * edge
    mesh = Mesh(origin, hi, edge)
    return VolumetricVarifold(
        mesh, cell_idx, masses, projectors, subdivisions=subdivisions
    )

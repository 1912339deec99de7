"""The per-axis column constructors against their broadcast formulas.

Sampling, binning, cell lists and projector validation work column by
column on length-N arrays. Each oracle below is the formula they replace,
broadcasting over trailing axes of length n; the rewrites must give the
same bits (compared as bytes, so the sign of a zero counts) and accept and
reject the same inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varmcf import cells
from varmcf.cells import CellList
from varmcf.discretization import Mesh, _nearest_planes, discretize
from varmcf.flow import AngenentOvalFlow
from varmcf.geometry import Circle, Sphere, WeightedSample
from varmcf.varifold import (
    VolumetricVarifold,
    _plane_dim,
    _validate_projectors,
)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _oracle_cell_index(mesh, points):
    points = np.asarray(points, dtype=float)
    slack = 1e-9 * mesh.edge
    inside = np.all(
        (points >= mesh.origin - slack) & (points <= mesh.upper + slack),
        axis=-1,
    )
    if not np.all(inside):
        bad = int(np.sum(~inside))
        raise ValueError(f"{bad} point(s) lie outside the mesh box")
    idx = np.floor((points - mesh.origin) / mesh.edge).astype(np.int64)
    return np.clip(idx, 0, mesh.counts - 1)


def _oracle_cell_keys(mesh, points):
    idx = _oracle_cell_index(mesh, points)
    return np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)),
                                tuple(mesh.counts))


def _oracle_circle_sample(circle, resolution):
    theta = 2.0 * np.pi * np.arange(resolution) / resolution
    cos, sin = np.cos(theta), np.sin(theta)
    pts = circle.center + circle.radius * np.stack([cos, sin], axis=1)
    t = np.stack([-sin, cos], axis=1)
    return pts, t[:, :, None] * t[:, None, :]


def _oracle_sphere_sample(sphere, resolution):
    u, _ = np.polynomial.legendre.leggauss(resolution)
    ntheta = 2 * resolution
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    r = sphere.radius
    ring = r * np.sqrt(1.0 - u**2)
    cos, sin = np.cos(theta), np.sin(theta)
    x = ring[:, None] * cos[None, :]
    yy = ring[:, None] * sin[None, :]
    z = np.broadcast_to((r * u)[:, None], x.shape)
    pts = np.stack([x, yy, z], axis=-1).reshape(-1, 3) + sphere.center
    nu = (pts - sphere.center) / r
    return pts, np.eye(3) - nu[:, :, None] * nu[:, None, :]


def _oracle_discretize(sample, mesh, subdivisions=2):
    """Binning by a stable sort of every point key. The planes come from
    the same ``_nearest_planes``; tests/test_cell_planes.py checks that
    against ``eigh``."""
    positions, projectors, weights = sample.atoms()
    d = _plane_dim(projectors)
    idx = _oracle_cell_index(mesh, positions)
    lin = np.ravel_multi_index(tuple(idx.T), tuple(mesh.counts))
    order = np.argsort(lin, kind="stable")
    sorted_lin = lin[order]
    starts = np.flatnonzero(np.r_[True, sorted_lin[1:] != sorted_lin[:-1]])
    w_sorted = np.take(weights, order)
    cell_mass = np.add.reduceat(w_sorted, starts)
    weighted_proj = w_sorted[:, None, None] * np.take(
        projectors, order, axis=0
    )
    proj_sum = np.add.reduceat(weighted_proj, starts, axis=0)
    keep = cell_mass > 0
    cell_mass = cell_mass[keep]
    mean_proj = proj_sum[keep] / cell_mass[:, None, None]
    mean_proj = 0.5 * (mean_proj + np.swapaxes(mean_proj, -1, -2))
    cell_idx = np.take(idx, order[starts][keep], axis=0)
    return VolumetricVarifold(
        mesh, cell_idx, cell_mass, _nearest_planes(mean_proj, d),
        subdivisions=subdivisions,
    )


def _oracle_cell_list(centres, reach):
    """(origin, shape, occupied block keys, their first sorted positions
    with the centre count appended, order, columns) of the broadcast
    constructor."""
    w = cells._BLOCK_SPLIT
    side = reach / w
    origin = centres.min(axis=0) - (2 * w + 1) * side
    blocks = np.floor((centres - origin) / side)
    shape = (blocks.max(axis=0) + (2 * w + 1)).astype(np.int64)
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    keys = blocks.astype(np.int64) @ strides
    order = np.argsort(keys, kind="stable")
    columns = np.ascontiguousarray(centres[order].T)
    blocks, heads = np.unique(keys, return_index=True)
    heads = np.append(np.argsort(order)[heads], len(keys))
    return origin, shape, blocks, heads, order, columns


def _oracle_validate_projectors(proj, d):
    if np.max(np.abs(proj - np.swapaxes(proj, -1, -2))) > 1e-12:
        raise ValueError("projectors must be symmetric within 1e-12")
    pp = np.matmul(proj, proj)
    if np.max(np.abs(pp - proj)) > 1e-10:
        raise ValueError("projectors must be idempotent within 1e-10")
    traces = np.einsum("...ii->...", proj)
    if np.max(np.abs(traces - d)) > 1e-10:
        raise ValueError(f"projector traces must equal {d} within 1e-10")


def _outcome(fn, *args):
    """The result of fn, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["interior", "far", "slack", "out",
                                       "nan"]),
                      min_size=1, max_size=40))
def test_cell_index_matches_broadcast_formula(n, seed, kinds):
    # Mesh.cell_keys against the raveled broadcast cell index: interior
    # points, points on a face, points within the 1e-9 edge slack outside a
    # face, points beyond it and nan or infinite coordinates; one axis moved
    # per point
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-3.0, 3.0, size=n)
    hi = lo + rng.uniform(0.05, 2.0, size=n)
    mesh = Mesh(lo, hi, rng.uniform(0.01, 0.5))
    slack = 1e-9 * mesh.edge
    points = rng.uniform(lo, hi, size=(len(kinds), n))
    for row, kind in enumerate(kinds):
        axis, upper = rng.integers(n), rng.integers(2) == 1
        face = hi[axis] if upper else lo[axis]
        sign = 1.0 if upper else -1.0
        if kind == "far":
            points[row, axis] = face
        elif kind == "slack":
            points[row, axis] = face + sign * slack * rng.uniform(0.0, 0.9)
        elif kind == "out":
            points[row, axis] = face + sign * slack * 10 ** rng.uniform(
                0.1, 9.0)
        elif kind == "nan":
            points[row, axis] = rng.choice([np.nan, np.inf, -np.inf])
    expected = _outcome(_oracle_cell_keys, mesh, points)
    actual = _outcome(mesh.cell_keys, points)
    if isinstance(expected, tuple):
        assert actual == expected
        bad = kinds.count("out") + kinds.count("nan")
        assert expected[1].startswith(f"{bad} point(s)")
    else:
        assert _same_bits(actual, expected)


@pytest.mark.parametrize("resolution", [8, 9, 257, 32768])
@pytest.mark.parametrize("radius, center", [
    (1.0, (0.0, 0.0)), (0.37, (-0.02, 1e-3)), (2.5, (1e6, -3.0)),
])
def test_circle_sample_matches_broadcast_formula(resolution, radius, center):
    circle = Circle(radius, center)
    sample = circle.sample(resolution)
    pts, proj = _oracle_circle_sample(circle, resolution)
    assert _same_bits(sample.positions, pts)
    assert _same_bits(sample.projectors, proj)


@pytest.mark.parametrize("resolution", [8, 9, 33, 128])
@pytest.mark.parametrize("radius, center", [
    (1.0, (0.0, 0.0, 0.0)), (0.61, (0.1, -0.2, 3e-3)),
])
def test_sphere_sample_matches_broadcast_formula(resolution, radius, center):
    sphere = Sphere(radius, center)
    sample = sphere.sample(resolution)
    pts, proj = _oracle_sphere_sample(sphere, resolution)
    assert _same_bits(sample.positions, pts)
    assert _same_bits(sample.projectors, proj)
    # nodes at azimuth 0 have nu_y = 0, so some off-diagonal products are
    # zeros, whose sign 0 - x keeps and -x would flip
    assert np.any(proj == 0.0)


@pytest.mark.parametrize("shape, resolution, edge", [
    (Circle(1.0, (0.013, -0.007)), 4096, 0.03),
    (Circle(0.8), 512, 0.25),
    (Sphere(1.0, (0.01, 0.0, -0.02)), 24, 0.2),
])
def test_discretize_matches_broadcast_formula(shape, resolution, edge):
    sample = shape.sample(resolution)
    rng = np.random.default_rng(resolution)
    weights = sample.weights * rng.uniform(0.5, 1.5, size=len(sample))
    weights[:len(sample) // 10] = 0.0  # a run of cells of zero mass
    sample = WeightedSample(sample.positions, sample.projectors, weights,
                            sample.dim)
    mesh = Mesh(*shape.bounding_box(margin=0.05), edge)
    vol = discretize(sample, mesh, subdivisions=2)
    ref = _oracle_discretize(sample, mesh, subdivisions=2)
    for name in ("cell_indices", "masses", "projectors"):
        assert _same_bits(getattr(vol, name), getattr(ref, name)), name


def _runs_per_cell(sample, mesh):
    """Number of runs of consecutive points that cross each occupied cell."""
    keys = mesh.cell_keys(sample.positions)
    runs = keys[np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])]
    return np.unique(runs, return_counts=True)[1]


def _shuffled_circle():
    circle = Circle(1.0, (0.013, -0.007))
    sample = circle.sample(4096)
    perm = np.random.default_rng(4).permutation(len(sample))
    sample = WeightedSample(sample.positions[perm], sample.projectors[perm],
                            sample.weights[perm], sample.dim)
    mesh = Mesh(*circle.bounding_box(margin=0.05), 0.03)
    assert np.mean(_runs_per_cell(sample, mesh) > 1) > 0.9
    return sample, mesh


def _oval_snapshot():
    trajectory = AngenentOvalFlow(-2.0).trajectory(0.0, 1.0, 2, 4096)
    return trajectory.sample(1), Mesh(*trajectory.bounding_box(), 0.02)


def _sphere_crossed_by_rings():
    sphere = Sphere(1.0, (0.01, 0.0, -0.02))
    sample = sphere.sample(48)
    mesh = Mesh(*sphere.bounding_box(margin=0.05), 0.15)
    assert np.mean(_runs_per_cell(sample, mesh) > 1) > 0.75
    return sample, mesh


def _zero_weight_run():
    # one point moved, weightless, into another cell's run: its old cell
    # becomes two runs, the new one gains a run of zero weight
    circle = Circle(1.0)
    sample = circle.sample(4096)
    positions, weights = sample.positions.copy(), sample.weights.copy()
    positions[1000], weights[1000] = positions[3000], 0.0
    sample = WeightedSample(positions, sample.projectors, weights,
                            sample.dim)
    mesh = Mesh(*circle.bounding_box(margin=0.05), 0.03)
    keys = mesh.cell_keys(positions)
    assert keys[999] == keys[1001] != keys[1000] == keys[3000]
    return sample, mesh


def _circle_seam():
    circle = Circle(1.0)
    sample = circle.sample(4096)
    mesh = Mesh(*circle.bounding_box(margin=0.05), 0.04)
    keys = mesh.cell_keys(sample.positions)
    assert keys[0] == keys[-1] and np.sum(keys == keys[0]) < len(keys) / 2
    assert keys[1:-1].min() < keys[0] < keys[1:-1].max()
    return sample, mesh


def _one_point():
    sample = Sphere(0.7).sample(8)
    sample = WeightedSample(sample.positions[5:6], sample.projectors[5:6],
                            sample.weights[5:6], sample.dim)
    return sample, Mesh([-1.0] * 3, [1.0] * 3, 0.3)


@pytest.mark.parametrize("build", [
    _shuffled_circle, _oval_snapshot, _sphere_crossed_by_rings,
    _zero_weight_run, _circle_seam, _one_point,
], ids=lambda build: build.__name__.strip("_"))
def test_discretize_matches_broadcast_formula_run_by_run(build):
    # cells that are one run, cells crossed by several runs, and samples
    # that mix them, against the stable sort of every point key
    sample, mesh = build()
    vol = discretize(sample, mesh, subdivisions=1)
    ref = _oracle_discretize(sample, mesh, subdivisions=1)
    for name in ("cell_indices", "masses", "projectors"):
        assert _same_bits(getattr(vol, name), getattr(ref, name)), name


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("count, reach", [(1, 0.3), (500, 0.05), (500, 0.7)])
def test_cell_list_fields_match_broadcast_formula(n, count, reach):
    rng = np.random.default_rng(count + n)
    centres = rng.uniform(-2.0, 1.0, size=(count, n))
    centres[count // 2:] = centres[:count - count // 2]  # duplicates
    centres[::7] += 1e3
    grid = CellList(centres, reach)
    origin, shape, blocks, heads, order, columns = _oracle_cell_list(
        centres, reach)
    assert _same_bits(grid.origin, origin)
    assert _same_bits(grid.shape, shape)
    assert _same_bits(grid.blocks, blocks)
    assert _same_bits(grid.heads, heads)
    assert _same_bits(grid.order, order)
    assert _same_bits(grid.columns, columns)


def _planes(n, d, off, count):
    """count projectors Q diag(1 + off, 1, ..., 1, -off, 0, ...) Q^T of
    rank d, random rotations Q: trace d, idempotent only within off."""
    diagonal = np.array([1.0] * d + [0.0] * (n - d))
    diagonal[0] += off
    diagonal[d] -= off
    rng = np.random.default_rng(n + d)
    q, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
    proj = np.einsum("kia,a,kja->kij", q, diagonal, q)
    return 0.5 * (proj + np.swapaxes(proj, -1, -2))


@pytest.mark.parametrize("asymmetry, off, trace_shift, count, accepted", [
    (0.0, 0.0, 0, 64, True),
    (5e-13, 0.0, 0, 64, True),
    (2e-12, 0.0, 0, 64, False),
    (0.0, 5e-11, 0, 64, True),
    (0.0, 2e-10, 0, 64, False),
    (0.0, 0.0, 1, 64, False),
    (0.0, 0.0, 0, 0, False),
], ids=["valid", "asymmetry 5e-13", "asymmetry 2e-12",
        "idempotency off by 5e-11", "idempotency off by 2e-10",
        "wrong trace", "empty"])
@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (3, 2)])
def test_validate_projectors_matches_broadcast_formula(
        asymmetry, off, trace_shift, count, accepted, n, d):
    proj = _planes(n, d, off, count)
    if count:
        proj[count // 2, 0, 1] += asymmetry
    expected = _outcome(_oracle_validate_projectors, proj, d + trace_shift)
    actual = _outcome(_validate_projectors, proj, d + trace_shift)
    if count:
        assert actual == expected
    else:
        # numpy's own reduction error in the oracle, a named one now
        assert expected[0] is actual[0] is ValueError
    assert (expected is None) == accepted

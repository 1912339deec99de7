import numpy as np
import pytest

from varmcf.discretization import Mesh, discretize
from varmcf.geometry import Circle, Sphere
from varmcf.metrics import AtomicMeasure, atomize
from varmcf.varifold import (
    PointCloudVarifold,
    SampledManifoldVarifold,
    VolumetricVarifold,
)


class LinearField:
    """X(x) = A x + b, with constant Jacobian A."""

    def __init__(self, matrix, offset=None):
        self.matrix = np.asarray(matrix, dtype=float)
        n = self.matrix.shape[0]
        self.offset = np.zeros(n) if offset is None else np.asarray(offset)

    def __call__(self, points):
        return points @ self.matrix.T + self.offset

    def jacobian(self, points):
        return np.broadcast_to(
            self.matrix, (len(points),) + self.matrix.shape
        )


class TrigField:
    """Smooth nonlinear test field with an analytic Jacobian."""

    def __call__(self, points):
        x = points[:, 0]
        y = points[:, 1]
        return np.stack([np.sin(2.0 * y), np.cos(x) + 0.5 * x], axis=1)

    def jacobian(self, points):
        x = points[:, 0]
        y = points[:, 1]
        zeros = np.zeros_like(x)
        row0 = np.stack([zeros, 2.0 * np.cos(2.0 * y)], axis=1)
        row1 = np.stack([-np.sin(x) + 0.5, zeros], axis=1)
        return np.stack([row0, row1], axis=1)


def _circle_varifold(resolution=512):
    return SampledManifoldVarifold(Circle(1.0).sample(resolution))


def _random_cloud(rng, count=40, n=3, d=2):
    positions = rng.normal(size=(count, n))
    masses = rng.uniform(0.1, 2.0, size=count)
    projectors = np.empty((count, n, n))
    for k in range(count):
        q, _ = np.linalg.qr(rng.normal(size=(n, d)))
        projectors[k] = q @ q.T
    return PointCloudVarifold(positions, projectors, masses)


def test_identity_field_gives_dimension_times_mass():
    v = _circle_varifold()
    field = LinearField(np.eye(2))
    assert v.first_variation(field) == pytest.approx(
        v.d * v.mass_total(), rel=1e-12
    )


def test_first_variation_matches_curvature_pairing_circle():
    shape = Circle(1.0)
    v = SampledManifoldVarifold(shape.sample(2048))
    field = TrigField()
    lhs = v.first_variation(field)
    h_vals = shape.mean_curvature(v.positions)
    rhs = -float(np.sum(v.masses * np.sum(h_vals * field(v.positions), axis=1)))
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_first_variation_matches_curvature_pairing_sphere():
    shape = Sphere(1.0)
    v = SampledManifoldVarifold(shape.sample(64))

    class Field3:
        def __call__(self, points):
            return np.stack(
                [
                    np.sin(points[:, 1]),
                    np.cos(points[:, 2]),
                    points[:, 0] * points[:, 2],
                ],
                axis=1,
            )

        def jacobian(self, points):
            m = len(points)
            jac = np.zeros((m, 3, 3))
            jac[:, 0, 1] = np.cos(points[:, 1])
            jac[:, 1, 2] = -np.sin(points[:, 2])
            jac[:, 2, 0] = points[:, 2]
            jac[:, 2, 2] = points[:, 0]
            return jac

    field = Field3()
    lhs = v.first_variation(field)
    h_vals = shape.mean_curvature(v.positions)
    rhs = -float(np.sum(v.masses * np.sum(h_vals * field(v.positions), axis=1)))
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_first_variation_linear_in_field():
    rng = np.random.default_rng(7)
    v = _random_cloud(rng)
    a = LinearField(rng.normal(size=(3, 3)))
    b = LinearField(rng.normal(size=(3, 3)))
    combo = LinearField(2.5 * a.matrix - 0.75 * b.matrix)
    assert v.first_variation(combo) == pytest.approx(
        2.5 * v.first_variation(a) - 0.75 * v.first_variation(b), rel=1e-12
    )


def test_mass_apply_constant_and_positivity():
    rng = np.random.default_rng(3)
    v = _random_cloud(rng)
    assert v.mass_apply(lambda p: np.ones(len(p))) == pytest.approx(
        v.mass_total(), rel=1e-14
    )
    val = v.mass_apply(lambda p: np.exp(-np.sum(p**2, axis=1)))
    assert val > 0


def test_varifold_apply_trace_recovers_dimension():
    rng = np.random.default_rng(11)
    v = _random_cloud(rng, d=2)
    val = v.varifold_apply(lambda p, proj: np.einsum("kii->k", proj))
    assert val == pytest.approx(2.0 * v.mass_total(), rel=1e-13)


def test_mass_total_permutation_invariant():
    rng = np.random.default_rng(5)
    v = _random_cloud(rng, count=200)
    perm = rng.permutation(len(v))
    w = PointCloudVarifold(
        v.positions[perm], v.projectors[perm], v.masses[perm]
    )
    assert w.mass_total() == pytest.approx(v.mass_total(), rel=1e-12)


def test_zero_mass_atoms_dropped():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    proj = np.broadcast_to(np.diag([1.0, 0.0]), (3, 2, 2)).copy()
    masses = np.array([1.0, 0.0, 2.0])
    v = PointCloudVarifold(positions, proj, masses)
    assert len(v) == 2
    assert v.mass_total() == pytest.approx(3.0)


def test_atomic_varifold_shares_frozen_arrays_and_copies_the_rest():
    sample = Sphere(1.0).sample(16)
    v = SampledManifoldVarifold(sample)
    # frozen arrays that own their data are kept as they are
    assert np.shares_memory(v.positions, sample.positions)
    assert np.shares_memory(v.projectors, sample.projectors)
    # a read-only view of a writable base is copied and frozen
    weights = sample.weights
    assert not weights.flags.writeable and weights.base.flags.writeable
    assert not np.shares_memory(v.masses, weights)
    assert np.array_equal(v.masses, weights)
    # writable arrays are copied, and left writable
    arrays = [np.array(a) for a in sample.atoms()]
    cloud = PointCloudVarifold(*arrays)
    for mine, stored in zip(arrays, cloud.atoms()):
        assert mine.flags.writeable and not stored.flags.writeable
        assert not np.shares_memory(mine, stored)


def test_negative_mass_rejected():
    positions = np.zeros((1, 2))
    proj = np.diag([1.0, 0.0])[None]
    with pytest.raises(ValueError, match="nonneg"):
        PointCloudVarifold(positions, proj, np.array([-1.0]))


@pytest.mark.parametrize("field", ["positions", "masses", "projectors"])
def test_non_finite_atoms_rejected(field):
    data = dict(positions=np.zeros((1, 2)), masses=np.array([1.0]),
                projectors=np.diag([1.0, 0.0])[None])
    data[field].flat[-1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        PointCloudVarifold(**data)


def test_invalid_projector_rejected():
    positions = np.zeros((1, 2))
    bad = np.array([[[0.5, 0.4], [0.1, 0.5]]])
    with pytest.raises(ValueError):
        PointCloudVarifold(positions, bad, np.array([1.0]))


def test_two_atom_constant_field_has_zero_first_variation():
    # two unit-half atoms on orthogonal lines: a constant field has zero
    # Jacobian, so its first variation is exactly 0
    positions = np.array([[0.0, 0.0], [1.0, 0.0]])
    proj = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    v = PointCloudVarifold(positions, proj, np.array([0.5, 0.5]))
    assert v.mass_total() == pytest.approx(1.0, rel=1e-15)
    const = LinearField(np.zeros((2, 2)), offset=[3.0, -2.0])
    assert v.first_variation(const) == 0.0


class _StubMesh:
    """Minimal uniform-mesh stand-in for volumetric evaluation tests."""

    def __init__(self, origin, edge):
        self.origin = np.asarray(origin, dtype=float)
        self.edge = float(edge)
        self.h = self.edge * np.sqrt(len(self.origin))

    def cell_center(self, indices):
        return self.origin + (np.asarray(indices) + 0.5) * self.edge


def _tiny_volumetric(subdivisions=2):
    mesh = _StubMesh([0.0, 0.0], 0.5)
    cells = np.array([[0, 0], [1, 0], [0, 2]])
    masses = np.array([1.0, 2.0, 0.5])
    proj = np.broadcast_to(np.diag([1.0, 0.0]), (3, 2, 2)).copy()
    return VolumetricVarifold(mesh, cells, masses, proj,
                              subdivisions=subdivisions)


_THREE_POSITIONS = np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.0]])
_THREE_PLANES = np.tile(np.diag([1.0, 0.0]), (3, 1, 1))


def _container(kind, masses, data):
    """A container of three atoms built from ``masses`` and its float
    array ``data``: positions, or for a volumetric varifold projectors."""
    if kind is VolumetricVarifold:
        cells = np.array([[0, 0], [0, 2], [1, 0]])
        return kind(_StubMesh([0.0, 0.0], 0.5), cells, masses, data)
    if kind is PointCloudVarifold:
        return kind(data, _THREE_PLANES, masses)
    return kind(data, masses)


@pytest.mark.parametrize(
    "kind", [PointCloudVarifold, VolumetricVarifold, AtomicMeasure]
)
def test_containers_check_and_freeze_atoms_alike(kind):
    name = "projectors" if kind is VolumetricVarifold else "positions"
    data = _THREE_PLANES if name == "projectors" else _THREE_POSITIONS
    masses = np.array([1.0, 2.0, 0.5])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            _container(kind, np.where([0, 1, 0], bad, masses), data)
        broken = data.copy()
        broken.flat[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            _container(kind, masses, broken)
    with pytest.raises(ValueError, match="nonneg"):
        _container(kind, -masses, data)
    # a read-only array that owns its data and loses no atom is kept; a
    # writable one is copied and stays writable
    frozen = data.copy()
    frozen.flags.writeable = False
    c = _container(kind, masses, frozen)
    assert getattr(c, name) is frozen
    assert not np.shares_memory(c.masses, masses)
    assert masses.flags.writeable and not c.masses.flags.writeable
    np.testing.assert_array_equal(c.masses, masses)
    # dropping a zero-mass atom copies every array
    c = _container(kind, np.array([1.0, 0.0, 0.5]), frozen)
    assert len(c) == 2 and not np.shares_memory(getattr(c, name), frozen)
    assert not getattr(c, name).flags.writeable


def test_volumetric_mass_apply_constant():
    v = _tiny_volumetric()
    assert v.mass_apply(lambda p: np.ones(len(p))) == pytest.approx(
        3.5, rel=1e-14
    )


def test_volumetric_mass_apply_linear_is_exact():
    # Midpoint subcell rule integrates affine functions exactly.
    v = _tiny_volumetric(subdivisions=3)
    coeffs = np.array([2.0, -1.5])

    def phi(points):
        return points @ coeffs + 0.25

    centers = v.cell_centers()
    expected = float(np.sum(v.masses * (centers @ coeffs + 0.25)))
    assert v.mass_apply(phi) == pytest.approx(expected, rel=1e-13)


def test_volumetric_first_variation_linear_field():
    v = _tiny_volumetric()
    a = np.array([[0.3, -1.2], [0.7, 2.0]])
    field = LinearField(a)
    expected = float(
        np.sum(v.masses * np.einsum("kij,ji->k", v.projectors, a))
    )
    assert v.first_variation(field) == pytest.approx(expected, rel=1e-13)


def test_volumetric_storage_order_normalized():
    mesh = _StubMesh([0.0, 0.0], 0.5)
    cells = np.array([[1, 0], [0, 2], [0, 0]])
    masses = np.array([2.0, 0.5, 1.0])
    proj = np.broadcast_to(np.diag([1.0, 0.0]), (3, 2, 2)).copy()
    v = VolumetricVarifold(mesh, cells, masses, proj)
    w = _tiny_volumetric()
    np.testing.assert_array_equal(v.cell_indices, w.cell_indices)
    np.testing.assert_array_equal(v.masses, w.masses)


def test_volumetric_duplicate_cells_rejected():
    mesh = _StubMesh([0.0, 0.0], 0.5)
    cells = np.array([[0, 0], [0, 0]])
    masses = np.array([1.0, 1.0])
    proj = np.broadcast_to(np.diag([1.0, 0.0]), (2, 2, 2)).copy()
    with pytest.raises(ValueError, match="duplicate"):
        VolumetricVarifold(mesh, cells, masses, proj)


def test_volumetric_quadrature_point_count():
    v = _tiny_volumetric(subdivisions=4)
    pts, owner = v.quadrature_points()
    assert pts.shape == (3 * 16, 2)
    assert owner.shape == (48,)
    # All nodes lie strictly inside their cell.
    corners = v.mesh.origin + v.cell_indices[owner] * v.mesh.edge
    rel = (pts - corners) / v.mesh.edge
    assert np.all(rel > 0) and np.all(rel < 1)


@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_volumetric_atoms_expand_each_cell_bitwise(subdivisions):
    sample = Circle(1.0).sample(2048)
    s = subdivisions
    v = discretize(sample, Mesh([-1.2, -1.2], [1.2, 1.2], 0.1), subdivisions=s)
    pts, proj, masses = v.atoms()
    nodes, owner = v.quadrature_points()
    assert pts is nodes
    assert np.array_equal(proj, v.projectors[owner])
    # Both former expansions: share per node, and cell mass per share.
    assert np.array_equal(masses, v.masses[owner] / s**v.n)
    assert np.array_equal(masses, np.repeat(v.masses / s**v.n, s**v.n))
    assert v.atoms() is v.atoms()
    assert not (proj.flags.writeable or masses.flags.writeable)
    measure = atomize(v)
    assert np.array_equal(measure.positions, pts)
    assert np.array_equal(measure.masses, masses)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("subdivisions", [1, 2, 3])
def test_quadrature_index_inverts_quadrature_points(n, subdivisions):
    # A negative origin that is no multiple of the edge: the nodes straddle
    # zero and none of them is a short binary fraction.
    lo = np.array([-1.37, -0.91, -2.03])[:n]
    mesh = Mesh(lo, lo + 2.0, 0.3)
    rng = np.random.default_rng(10 * n + subdivisions)
    cells = np.unique(rng.integers(0, 7, size=(12, n)), axis=0)
    plane = np.zeros((n, n))
    plane[0, 0] = 1.0
    v = VolumetricVarifold(mesh, cells, np.ones(len(cells)),
                           np.broadcast_to(plane, (len(cells), n, n)),
                           subdivisions=subdivisions)
    s = subdivisions
    pts, owner = v.quadrature_points()
    ok, cell, sub = v.quadrature_index(pts)
    assert ok.all()
    np.testing.assert_array_equal(cell, v.cell_indices[owner])
    local = np.arange(len(pts)) % s**n
    np.testing.assert_array_equal(
        sub, np.stack(np.unravel_index(local, (s,) * n), axis=1)
    )
    for axis in range(n):
        for direction in (-np.inf, np.inf):
            moved = pts.copy()
            moved[:, axis] = np.nextafter(moved[:, axis], direction)
            assert not v.quadrature_index(moved)[0].any()

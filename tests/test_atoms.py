"""The ``atoms()`` interface shared by samples and varifolds.

Every set of weighted atoms (a ``WeightedSample``, the atomic varifolds and
the volumetric varifold) returns (positions, projectors, masses) from
``atoms()``, and the varifold integrals are sums over exactly those atoms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varmcf.brakke import RadialBump
from varmcf.discretization import Mesh, discretize
from varmcf.geometry import Circle
from varmcf.metrics import atomize
from varmcf.varifold import PointCloudVarifold, SampledManifoldVarifold

_CIRCLE = Circle(1.0, (0.1, -0.2))
_SAMPLE = _CIRCLE.sample(64)
_MESH = Mesh(*_CIRCLE.bounding_box(margin=0.05), 0.3)


def _sample():
    return _SAMPLE, _SAMPLE.weights


def _sampled():
    v = SampledManifoldVarifold(_SAMPLE)
    return v, v.masses


def _cloud():
    rng = np.random.default_rng(5)
    positions = rng.normal(size=(30, 3))
    projectors = np.empty((30, 3, 3))
    for k in range(30):
        q, _ = np.linalg.qr(rng.normal(size=(3, 2)))
        projectors[k] = q @ q.T
    v = PointCloudVarifold(positions, projectors, rng.uniform(0.1, 2, 30))
    return v, v.masses


def _volumetric():
    # no stored atom array: the atoms expand the cells
    return discretize(_SAMPLE, _MESH, subdivisions=3), None


class _Field:
    """X(x) = A x with A = I + a fixed perturbation; Jacobian A."""

    def jacobian(self, points):
        n = points.shape[1]
        a = np.eye(n) + 0.1 * np.arange(n * n).reshape(n, n) / n**2
        return np.broadcast_to(a, (len(points), n, n))


def _phi(points):
    return np.exp(-np.sum(points**2, axis=1))


def _f(points, projectors):
    return np.einsum("kii->k", projectors) * (1.0 + points[:, 0] ** 2)


@pytest.mark.parametrize(
    "make", [_sample, _sampled, _cloud, _volumetric],
    ids=["sample", "sampled", "cloud", "volumetric"],
)
def test_atoms_contract(make):
    obj, stored = make()
    pts, proj, masses = obj.atoms()
    for arr in (pts, proj, masses):
        assert not arr.flags.writeable
    if stored is not None:
        assert pts is obj.positions
        assert proj is obj.projectors
        assert masses is stored
    # one quadrature per set: there is no per-call subdivision count
    for call in (obj.atoms, obj.mass_atoms, lambda s: atomize(obj, s)):
        with pytest.raises(TypeError):
            call(2)

    measure = atomize(obj)
    assert np.array_equal(measure.positions, pts)
    assert np.array_equal(measure.masses, masses)

    div = np.einsum("kij,kji->k", proj, _Field().jacobian(pts))
    explicit = {
        "mass_total": np.sum(masses),
        "mass_apply": np.sum(masses * _phi(pts)),
        "varifold_apply": np.sum(masses * _f(pts, proj)),
        "first_variation": np.sum(masses * div),
    }
    got = {
        "mass_total": obj.mass_total(),
        "mass_apply": obj.mass_apply(_phi),
        "varifold_apply": obj.varifold_apply(_f),
        "first_variation": obj.first_variation(_Field()),
    }
    rel = 0.0 if stored is not None else 1e-14
    for key, value in explicit.items():
        assert abs(got[key] - value) <= rel * abs(value), key


def test_volumetric_integrals_are_the_cell_midpoint_rule():
    # each cell's mass times the mean over its s^n subcell nodes
    vol = discretize(_SAMPLE, _MESH, subdivisions=3)
    pts, _ = vol.quadrature_points()
    cell_rule = np.sum(vol.masses * _phi(pts).reshape(len(vol), -1).mean(1))
    assert abs(vol.mass_apply(_phi) - cell_rule) <= 1e-14 * cell_rule
    assert abs(vol.mass_total() - np.sum(vol.masses)) <= 1e-14 * np.sum(
        vol.masses
    )


def test_discretize_reads_samples_and_varifolds_alike():
    a = discretize(_SAMPLE, _MESH)
    b = discretize(SampledManifoldVarifold(_SAMPLE), _MESH)
    assert a.d == b.d == 1
    for key in ("cell_indices", "masses", "projectors"):
        assert getattr(a, key).tobytes() == getattr(b, key).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    radius=st.floats(0.3, 2.0),
    center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    resolution=st.sampled_from([64, 256]),
    edge=st.floats(0.02, 0.6),
    subdivisions=st.integers(1, 3),
    bump_center=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    inner=st.floats(0.0, 1.5),
    width=st.floats(0.05, 2.0),
)
def test_transfer_bound_on_random_bumps(radius, center, resolution, edge,
                                        subdivisions, bump_center, inner,
                                        width):
    # binning moves each atom's mass by less than the cell diameter h, so a
    # Lipschitz phi integrates to within h * lip(phi) * mass
    shape = Circle(radius, center)
    sample = shape.sample(resolution)
    mesh = Mesh(*shape.bounding_box(margin=0.05), edge)
    vol = discretize(sample, mesh, subdivisions=subdivisions)
    phi = RadialBump(bump_center, inner, inner + width)
    sampled = SampledManifoldVarifold(sample)
    gap = abs(sampled.mass_apply(phi) - vol.mass_apply(phi))
    assert gap <= mesh.h * phi.lip * sampled.mass_total()


def test_mass_integrals_expand_nodes_without_projector_copies():
    # atomize, mass_total and mass_apply read the nodes and per-node masses
    # alone: no ("atoms", s) entry is cached, and the values are bitwise
    # those of the full atoms
    vol = discretize(_SAMPLE, _MESH, subdivisions=3)
    measure = atomize(vol)
    total, applied = vol.mass_total(), vol.mass_apply(_phi)
    assert measure.masses.shape == (9 * len(vol),)
    assert not [key for key in vol._caches if key[0] == "atoms"]
    pts, _, masses = vol.atoms()
    assert measure.positions.tobytes() == pts.tobytes()
    assert measure.masses.tobytes() == masses.tobytes()
    assert total == float(np.sum(masses))
    assert applied == float(np.sum(masses * _phi(pts)))

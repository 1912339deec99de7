"""A cell's plane against the eigendecomposition it replaces.

``discretization._nearest_planes`` gives lines in the plane in closed form
(the 2x2 symmetric Schur step) and takes ``np.linalg.eigh`` for every other
(n, d). The superseded formula, the top-d eigenvectors of ``eigh`` as an
outer product, is kept here as the oracle. Every comparison runs with all
floating-point errors raised, so a division by zero or an overflow on the
way fails the test.
"""

import numpy as np
import pytest

from varmcf.discretization import Mesh, _nearest_planes, discretize
from varmcf.flow import AngenentOvalFlow
from varmcf.geometry import Circle, Ellipse, Sphere, WeightedSample


def _eigh_planes(mean_proj, d):
    _, vecs = np.linalg.eigh(mean_proj)
    top = vecs[..., -d:]
    return np.einsum("kia,kja->kij", top, top)


def _cell_means(sample, mesh):
    """Mass-weighted mean projector of each occupied cell, symmetrized."""
    positions, projectors, weights = sample.atoms()
    _, cell = np.unique(mesh.cell_keys(positions), return_inverse=True)
    mass = np.bincount(cell, weights=weights)
    sums = np.zeros((len(mass),) + projectors.shape[1:])
    np.add.at(sums, cell, weights[:, None, None] * projectors)
    mean = sums[mass > 0] / mass[mass > 0, None, None]
    return 0.5 * (mean + np.swapaxes(mean, -1, -2))


def _means(name):
    """Random trace-1 PSD matrices, or the cell means of a snapshot."""
    if name == "random-psd":
        x = np.random.default_rng(0).normal(size=(4096, 2, 2))
        m = x @ np.swapaxes(x, -1, -2)
        m /= np.trace(m, axis1=-2, axis2=-1)[:, None, None]
        return 0.5 * (m + np.swapaxes(m, -1, -2))
    if name == "circle":
        shape = Circle(1.0, (0.013, -0.007))
        sample = shape.sample(4096)
        mesh = Mesh(*shape.bounding_box(margin=0.05), 0.03)
    elif name == "ellipse":
        shape = Ellipse(1.3, 0.6, (0.02, 0.01))
        sample = shape.sample(4096)
        mesh = Mesh(*shape.bounding_box(margin=0.05), 0.04)
    else:
        trajectory = AngenentOvalFlow(-2.0).trajectory(0.0, 1.0, 2, 4096)
        sample = trajectory.sample(1)
        mesh = Mesh(*trajectory.bounding_box(), 0.02)
    return _cell_means(sample, mesh)


@pytest.mark.parametrize("name", ["random-psd", "circle", "ellipse", "oval"])
def test_lines_match_eigh(name):
    means = _means(name)
    with np.errstate(all="raise"):
        planes = _nearest_planes(means, 1)
        ref = _eigh_planes(means, 1)
    assert planes.shape == means.shape
    assert np.max(np.abs(planes - ref)) <= 1e-15


@pytest.mark.parametrize("matrix, expected", [
    ([[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.0, 1.0]]),  # isotropic
    ([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]),
    ([[0.8, 0.1], [0.1, 0.2]], None),  # a > c
    ([[0.3, -0.2], [-0.2, 0.7]], None),  # a < c
    ([[0.5, 0.3], [0.3, 0.5]], [[0.5, 0.5], [0.5, 0.5]]),  # a == c
    ([[0.0, -0.4], [-0.4, 0.0]], [[0.5, -0.5], [-0.5, 0.5]]),
    ([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]),
    ([[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]),
], ids=["isotropic", "zero", "a>c", "a<c", "a==c", "off-diagonal",
        "x-axis", "y-axis"])
def test_line_cases(matrix, expected):
    means = np.array([matrix])
    with np.errstate(all="raise"):
        planes = _nearest_planes(means, 1)
        ref = _eigh_planes(means, 1)
    assert np.max(np.abs(planes - ref)) <= 1e-15
    if expected is not None:
        assert np.max(np.abs(planes[0] - expected)) <= 1e-15
    assert np.array_equal(planes, np.swapaxes(planes, -1, -2))


@pytest.mark.parametrize("matrix", [
    [[0.5, 1e-300], [1e-300, 0.5]],
    [[0.5, -1e-300], [-1e-300, 0.5]],
    [[1e-300, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 1e-300]],
    [[3e-300, 1e-300], [1e-300, 1e-300]],
])
def test_nearly_isotropic_lines_are_eigenprojectors(matrix):
    # eigh deflates a gap this small and answers diag(0, 1) for the first
    # two; the closed form resolves the line, so check what makes it one
    means = np.array([matrix])
    with np.errstate(all="raise"):
        p = _nearest_planes(means, 1)[0]
        top = np.linalg.eigvalsh(means[0])[-1]
        m = means[0]
        assert np.array_equal(p, p.T)
        assert np.max(np.abs(p @ p - p)) <= 1e-15
        assert abs(np.trace(p) - 1.0) <= 1e-15
        scale = np.max(np.abs(m))
        mp = (m / scale) @ p
        assert np.max(np.abs(mp - (top / scale) * p)) <= 1e-15


def test_other_dimensions_take_eigh_bitwise():
    sphere = Sphere(1.0, (0.01, 0.0, -0.02))
    means = _cell_means(sphere.sample(24),
                        Mesh(*sphere.bounding_box(margin=0.05), 0.2))
    for d in (1, 2, 3):
        assert np.array_equal(_nearest_planes(means, d),
                              _eigh_planes(means, d))
    circle = _means("circle")
    assert np.array_equal(_nearest_planes(circle, 2),
                          _eigh_planes(circle, 2))


def test_lines_in_the_plane_bin_without_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    shape = Circle(1.0)
    vol = discretize(shape.sample(512), Mesh(*shape.bounding_box(0.05), 0.1))
    assert vol.d == 1 and len(vol) > 0


def test_rank_zero_sample_bins_to_zero_planes():
    # the Frobenius-nearest rank-0 projector is zero; taking "the top 0
    # eigenvectors" as vecs[..., -0:] kept them all and gave d = 2
    positions = np.random.default_rng(0).uniform(-1.0, 1.0, size=(50, 2))
    sample = WeightedSample(positions, np.zeros((50, 2, 2)), np.ones(50), 0)
    vol = discretize(sample, Mesh([-1.0, -1.0], [1.0, 1.0], 0.5))
    assert vol.d == 0
    assert np.array_equal(vol.projectors, np.zeros_like(vol.projectors))
    assert vol.mass_total() == pytest.approx(50.0, rel=1e-15)

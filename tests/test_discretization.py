import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varmcf.discretization import Mesh, discretize
from varmcf.flow import ShrinkingCircle
from varmcf.geometry import Circle, Sphere, Torus, WeightedSample


def test_mesh_geometry_basics():
    mesh = Mesh([-1.0, -1.0], [1.0, 1.0], 0.5)
    assert mesh.n == 2
    np.testing.assert_array_equal(mesh.counts, [4, 4])
    assert mesh.h == pytest.approx(0.5 * np.sqrt(2.0))
    assert mesh.num_cells() == 16
    np.testing.assert_allclose(
        mesh.cell_center([[0, 0], [3, 3]]),
        [[-0.75, -0.75], [0.75, 0.75]],
    )


def test_mesh_far_face_points_belong_to_last_cell():
    mesh = Mesh([-1.0, -1.0], [1.0, 1.0], 0.5)
    keys = mesh.cell_keys(np.array([[1.0, 0.0], [-1.0, 1.0]]))
    np.testing.assert_array_equal(keys, [3 * 4 + 2, 0 * 4 + 3])
    assert keys.dtype == np.int64


def test_mesh_rejects_outside_points():
    mesh = Mesh([0.0, 0.0], [1.0, 1.0], 0.25)
    with pytest.raises(ValueError, match="outside"):
        mesh.cell_keys(np.array([[0.5, 0.5], [1.5, 0.5]]))


def test_cell_keys_refuse_a_mesh_too_large_for_int64():
    mesh = Mesh([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1e-7)
    assert mesh.num_cells() > np.iinfo(np.int64).max
    with pytest.raises(ValueError, match="overflow int64"):
        mesh.cell_keys(np.array([[0.5, 0.5, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5])
def test_discretize_rejects_points_outside_the_box(bad):
    sample = Circle(0.4).sample(64)
    positions = sample.positions.copy()
    positions[[3, 40], 1] = bad
    sample = WeightedSample(positions, sample.projectors, sample.weights, 1)
    mesh = Mesh([-0.5, -0.5], [0.5, 0.5], 0.1)
    with pytest.raises(ValueError, match=r"^2 point\(s\) lie outside"):
        discretize(sample, mesh)


def test_discretize_bins_far_face_and_slack_points_to_edge_cells():
    # on the far face, and a hair outside either face within the slack
    mesh = Mesh([0.0, 0.0], [1.0, 1.0], 0.25)
    slack = 0.5e-9 * mesh.edge
    positions = np.array([[1.0, 0.5], [0.5, 1.0 + slack], [-slack, 0.1]])
    projectors = np.tile(np.diag([1.0, 0.0]), (3, 1, 1))
    sample = WeightedSample(positions, projectors, [1.0, 2.0, 3.0], 1)
    vol = discretize(sample, mesh)
    np.testing.assert_array_equal(vol.cell_indices, [[0, 0], [2, 3], [3, 2]])
    np.testing.assert_array_equal(vol.masses, [3.0, 2.0, 1.0])


@pytest.mark.parametrize("lo, hi", [
    ([0.0, 0.0], [1.0, np.inf]),
    ([-np.inf, 0.0], [1.0, 1.0]),
    ([0.0, np.nan], [1.0, 1.0]),
])
def test_mesh_rejects_non_finite_box(lo, hi):
    # checked before the cell counts are cast, which would warn and bin
    # points far apart along the infinite axis into one cell
    with pytest.raises(ValueError, match="finite"):
        Mesh(lo, hi, 0.1)


def test_mesh_rejects_degenerate_box():
    with pytest.raises(ValueError, match="extent"):
        Mesh([0.0, 0.0], [1.0, 0.0], 0.25)


@pytest.mark.parametrize(
    "shape,resolution",
    [
        (Circle(1.0), 4096),
        (Sphere(1.0), 64),
        (Torus(2.0, 0.5), 96),
    ],
)
def test_discretize_conserves_mass(shape, resolution):
    sample = shape.sample(resolution)
    lo, hi = shape.bounding_box(margin=0.05)
    for edge in (0.2, 0.1):
        mesh = Mesh(lo, hi, edge)
        vol = discretize(sample, mesh)
        total = float(np.sum(sample.weights))
        assert vol.mass_total() == pytest.approx(total, rel=1e-12)
        assert vol.d == shape.d


def _line_samples(n):
    """Weighted samples in [-1, 1]^n with tangent lines from integer
    directions."""
    point = st.tuples(
        st.tuples(*[st.floats(-1.0, 1.0)] * n),
        st.tuples(*[st.integers(-3, 3)] * n).filter(any),
        st.floats(1e-3, 10.0),
    )
    return st.lists(point, min_size=1, max_size=40)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 3).flatmap(lambda n: _line_samples(n)),
    st.sampled_from([0.05, 0.3, 0.7, 2.5]),
    st.integers(1, 3),
)
def test_discretize_conserves_mass_per_cell(points, edge, subdivisions):
    positions = np.array([p for p, _, _ in points])
    tangents = np.array([t for _, t, _ in points], dtype=float)
    tangents /= np.linalg.norm(tangents, axis=1)[:, None]
    weights = np.array([w for _, _, w in points])
    projectors = tangents[:, :, None] * tangents[:, None, :]
    sample = WeightedSample(positions, projectors, weights, 1)
    mesh = Mesh(positions.min(0) - 0.01, positions.max(0) + 0.01, edge)
    vol = discretize(sample, mesh, subdivisions=subdivisions)
    assert vol.mass_total() == pytest.approx(weights.sum(), rel=1e-12)
    assert vol.mass_apply(lambda x: np.ones(len(x))) == pytest.approx(
        weights.sum(), rel=1e-12
    )
    # every cell carries exactly the weight of the samples binned into it
    cells = np.stack(np.unravel_index(mesh.cell_keys(positions),
                                      mesh.counts), axis=1)
    for index, mass in zip(vol.cell_indices, vol.masses):
        inside = np.all(cells == index, axis=1)
        assert mass == pytest.approx(weights[inside].sum(), rel=1e-12)
    assert sum(np.all(cells == index, axis=1).sum()
               for index in vol.cell_indices) == len(positions)


def test_discretize_is_order_independent():
    sample = Circle(1.0).sample(512)
    rng = np.random.default_rng(2)
    perm = rng.permutation(len(sample.positions))
    shuffled = WeightedSample(
        sample.positions[perm],
        sample.projectors[perm],
        sample.weights[perm],
        sample.dim,
    )
    mesh = Mesh(*Circle(1.0).bounding_box(margin=0.05), 0.15)
    a = discretize(sample, mesh)
    b = discretize(shuffled, mesh)
    np.testing.assert_array_equal(a.cell_indices, b.cell_indices)
    np.testing.assert_allclose(a.masses, b.masses, rtol=1e-13)
    np.testing.assert_allclose(a.projectors, b.projectors, atol=1e-12)


def test_cell_plane_maximizes_alignment_over_direction_sweep():
    # Two concentrated line directions with unequal mass in one cell: the
    # fitted plane must beat every swept candidate direction on the
    # alignment score <P, mean projector>, and land on the heavier line.
    def line_projector(theta):
        t = np.array([np.cos(theta), np.sin(theta)])
        return np.outer(t, t)

    positions = np.array([[0.5, 0.5], [0.52, 0.48]])
    projectors = np.stack([line_projector(0.0), line_projector(np.pi / 2)])
    weights = np.array([0.75, 0.25])
    sample = WeightedSample(positions, projectors, weights, 1)
    mesh = Mesh([0.0, 0.0], [1.0, 1.0], 1.0)
    vol = discretize(sample, mesh)
    assert len(vol) == 1
    fitted = vol.projectors[0]
    mean_proj = (weights[:, None, None] * projectors).sum(0) / weights.sum()
    best = float(np.sum(fitted * mean_proj))
    for theta in np.linspace(0.0, np.pi, 360, endpoint=False):
        cand = float(np.sum(line_projector(theta) * mean_proj))
        assert best >= cand - 1e-12
    np.testing.assert_allclose(fitted, line_projector(0.0), atol=1e-12)


def test_mass_measure_approximation_bound():
    # |integral of phi against the sample - against the cells| <= h lip mass
    # for Lipschitz phi, since every quadrature node stays within h of the
    # sample points it inherits mass from.
    shape = Circle(1.0)
    sample = shape.sample(4096)
    lo, hi = shape.bounding_box(margin=0.05)
    mesh = Mesh(lo, hi, 0.1)
    vol = discretize(sample, mesh)

    def phi(points):
        return np.linalg.norm(points - np.array([0.3, -0.2]), axis=1)

    exact = float(np.sum(sample.weights * phi(sample.positions)))
    approx = vol.mass_apply(phi)
    assert abs(exact - approx) <= mesh.h * float(np.sum(sample.weights))


def test_dimension_mismatch_rejected():
    sample = Circle(1.0).sample(64)
    mesh = Mesh([0.0] * 3, [1.0] * 3, 0.5)
    with pytest.raises(ValueError, match="dimension"):
        discretize(sample, mesh)


def test_discretize_of_a_residual_snapshot_peaks_below_one_mib():
    # a residual-circle snapshot: 32,768 samples at edge eps^4 / sqrt(2),
    # eps 0.4. Its cells are whole runs, summed where they lie one entry
    # column at a time, so no sort permutation or (N, n * n) gather of the
    # sample is held; the keys and Mesh.cell_keys' temporaries make the peak
    trajectory = ShrinkingCircle(1.0, (0.02, -0.03)).trajectory(
        0.0, 0.125, 4, 32768)
    mesh = Mesh(*trajectory.bounding_box(), 0.4**4 / math.sqrt(2.0))
    sample = trajectory.sample(2)
    tracemalloc.start()
    try:
        discretize(sample, mesh, subdivisions=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024

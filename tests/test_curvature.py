import copy
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varmcf import cells, curvature
from varmcf.curvature import (
    CurvatureQuery,
    DenominatorTooSmall,
    approx_mean_curvature,
    curvature_field,
    regularized_sums,
)
from varmcf.discretization import Mesh, discretize
from varmcf.geometry import Circle, Sphere
from varmcf.kernels import (
    PolynomialProfile,
    default_kernel_pair,
    natural_pair_from_rho,
)
from varmcf.varifold import (
    PointCloudVarifold,
    SampledManifoldVarifold,
    VolumetricVarifold,
)


def _brute_force(varifold, pair, eps, points):
    """Direct double loop over atoms, no spatial hashing."""
    pts = np.atleast_2d(points)
    n = varifold.n
    num = np.zeros((len(pts), n))
    den = np.zeros(len(pts))
    for g, y in enumerate(pts):
        w = varifold.positions - y
        r = np.linalg.norm(w, axis=1)
        u = r / eps
        den[g] = float(np.sum(varifold.masses * pair.xi(u))) / eps**n
        coef = pair.rho.derivative(u) / np.maximum(r, 1e-300) / eps ** (n + 1)
        num[g] = np.einsum(
            "m,mij,mj->i", varifold.masses * coef, varifold.projectors, w
        )
    return num, den


def _expanded_cloud(vol, eps):
    """A volumetric varifold's subcell quadrature as a point cloud.

    Uses the documented rule s = max(2, subdivisions, ceil(4 h / eps)) that
    keeps subcells below eps / 4.
    """
    s = max(2, vol.subdivisions, math.ceil(4.0 * vol.h / eps))
    pts, owner = vol.quadrature_points(s)
    masses = np.repeat(vol.masses / s**vol.n, s**vol.n)
    return PointCloudVarifold(pts, vol.projectors[owner], masses, dim=vol.d)


def _random_plane_cloud(rng, count):
    """Atoms on a dyadic grid in [-1, 1]^3 with random tangent 2-planes."""
    positions = rng.integers(-64, 65, size=(count, 3)) / 64.0
    normals = rng.standard_normal((count, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    projectors = np.eye(3) - normals[:, :, None] * normals[:, None, :]
    masses = rng.uniform(0.5, 1.5, size=count)
    return PointCloudVarifold(positions, projectors, masses, dim=2)


def _dyadic_circle_cells():
    """Volumetric circle on a mesh whose nodes are exact binary fractions."""
    sample = Circle(1.0).sample(4096)
    mesh = Mesh(np.array([-1.5, -1.5]), np.array([1.5, 1.5]), 0.125)
    return discretize(sample, mesh)


def _assert_matches_oracle(varifold, cloud, pair, eps, probes):
    query = CurvatureQuery(pair, eps)
    num, den = regularized_sums(varifold, query, probes)
    num_ref, den_ref = _brute_force(cloud, pair, eps, probes)
    np.testing.assert_allclose(num, num_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(den, den_ref, rtol=1e-12, atol=1e-12)


def test_sums_match_brute_force_in_three_dimensions():
    rng = np.random.default_rng(31)
    v = _random_plane_cloud(rng, 400)
    eps = 0.25
    # Probes sitting on atoms, at exactly eps from an atom (the inclusive
    # edge of the neighbour search), and at random.
    on_atoms = v.positions[:5]
    at_edge = v.positions[5:10] - np.array([eps, 0.0, 0.0])
    probes = np.vstack([on_atoms, at_edge, rng.uniform(-1, 1, (30, 3))])
    dist = np.linalg.norm(v.positions[None] - probes[:, None], axis=2)
    assert np.sum(dist == eps) >= 5
    assert np.sum(dist == 0.0) >= 5
    _assert_matches_oracle(v, v, default_kernel_pair(3, 2), eps, probes)


def test_volumetric_sums_match_brute_force_on_expanded_cloud():
    vol = _dyadic_circle_cells()
    eps = 0.5
    cloud = _expanded_cloud(vol, eps)
    nodes = cloud.positions[:: len(cloud) // 7][:7]
    probes = np.vstack([
        nodes,
        nodes - np.array([eps, 0.0]),
        Circle(1.0).sample(16).positions,
    ])
    dist = np.linalg.norm(cloud.positions[None] - probes[:, None], axis=2)
    assert np.sum(dist == eps) >= 7
    assert np.sum(dist == 0.0) >= 7
    _assert_matches_oracle(vol, cloud, default_kernel_pair(2, 1), eps, probes)


def _sphere_case():
    probes = np.vstack([
        Sphere(1.0).sample(8).positions[::4], [[3.0, 3.0, 3.0]]
    ])
    sphere = SampledManifoldVarifold.from_shape(Sphere(1.0), 32)
    return sphere, default_kernel_pair(3, 2), 0.3, probes


def _volumetric_circle_case():
    probes = np.vstack([Circle(1.0).sample(24).positions, [[0.0, 0.0]]])
    return _dyadic_circle_cells(), default_kernel_pair(2, 1), 0.2, probes


def _own_node_circle_case(subdivisions=1, edge=0.125):
    """Volumetric circle probed at 24 of its own quadrature nodes (s_p =
    subdivisions) and at the circle's centre, which has no atom in reach.
    By default s_p = 1 and, at eps 0.2, its atoms subdivide each cell
    s_a = 4 times; the edge sets s_a."""
    sample = Circle(1.0).sample(4096)
    mesh = Mesh(np.array([-1.5, -1.5]), np.array([1.5, 1.5]), edge)
    vol = discretize(sample, mesh, subdivisions=subdivisions)
    nodes = vol.atoms()[0]
    probes = np.vstack([nodes[:: len(nodes) // 24][:24], [[0.0, 0.0]]])
    return vol, default_kernel_pair(2, 1), 0.2, probes


def _set_budgets(monkeypatch, budget):
    """Cut the runs of both paths, per pair and offset table, at budget."""
    monkeypatch.setattr(curvature, "_PAIR_BUDGET", budget)
    monkeypatch.setattr(curvature, "_NODE_BUDGET", budget)


def _cell_list_walk(varifold, eps):
    """Indices of the atoms (of ``_expanded_cloud`` if volumetric) in the
    order of the engine's cell list: groups by their sorted position, the
    subcell atoms of a cell in index order."""
    if not isinstance(varifold, VolumetricVarifold):
        reach = eps * (1 + curvature._REACH_SLACK)
        return cells.CellList(varifold.positions, reach).order
    s = max(2, varifold.subdivisions, math.ceil(4.0 * varifold.h / eps))
    spread = varifold.h * (s - 1) / (2 * s)
    reach = (eps + spread) * (1 + curvature._REACH_SLACK)
    order = cells.CellList(varifold.cell_centers(), reach).order
    size = s**varifold.n
    return (order[:, None] * size + np.arange(size)).ravel()


def _sequential_sums(varifold, pair, eps, probes):
    """Per-probe sums accumulated one pair at a time in cell-list order.

    Walks the atoms (the expanded cloud of a volumetric varifold) in the
    order of the engine's cell list and mirrors the engine's arithmetic:
    squared distances summed axis by axis, a running total from 0.0 per
    mass sum and per first-variation component, then the n projector
    columns added in turn. Any other neighbour order or distance rounding
    shows up as a difference in the last bits.
    """
    cloud = varifold
    if isinstance(varifold, VolumetricVarifold):
        cloud = _expanded_cloud(varifold, eps)
    walk = _cell_list_walk(varifold, eps)
    n = cloud.n
    num = np.zeros((len(probes), n))
    den = np.zeros(len(probes))
    for g, y in enumerate(probes):
        diff = cloud.positions[walk] - y
        dist_sq = np.zeros(len(walk))
        for k in range(n):
            dist_sq += diff[:, k] * diff[:, k]
        r = np.sqrt(dist_sq)
        near = np.flatnonzero(r <= eps)
        u = r[near] / eps
        mass = cloud.masses[walk[near]]
        total = 0.0
        for value in mass * pair.xi(u):
            total += value
        den[g] = total * eps ** (-n)
        w = mass * pair.rho.derivative(u) / np.maximum(r[near], 1e-300)
        w *= eps ** (-(n + 1))
        for k in range(n):
            column = np.zeros(n)
            for a, j in zip(w * diff[near, k], walk[near]):
                column += a * cloud.projectors[j, :, k]
            num[g] += column
    return num, den


def _volumetric_sphere_case(s, edge):
    """Volumetric sphere at eps 0.3 whose edge makes the rule
    s = max(2, subdivisions, ceil(4 h / eps)) give s, so the cell search
    expands each cell into s^3 atoms. Three probes are atoms; at s = 2 they
    are also the varifold's own quadrature nodes (s_p = 2)."""
    eps = 0.3
    sample = Sphere(1.0).sample(64)
    vol = discretize(sample, Mesh.covering(sample.positions, edge, pad=0.1))
    assert max(2, math.ceil(4.0 * vol.h / eps)) == s
    nodes = vol.atoms(s)[0]
    probes = np.vstack([
        Sphere(1.0).sample(8).positions[::8],
        nodes[:: len(nodes) // 3][:3],
        [[3.0, 3.0, 3.0]],
    ])
    return vol, default_kernel_pair(3, 2), eps, probes


@pytest.mark.parametrize("make_case", [
    _sphere_case,
    _volumetric_circle_case,
    *(pytest.param(lambda s=s, edge=edge: _volumetric_sphere_case(s, edge),
                   id=f"volumetric_sphere_s{s}")
      for s, edge in ((2, 0.0625), (3, 0.125), (4, 0.15625))),
])
def test_sums_follow_atom_index_order_exactly(make_case):
    # the oracle walks the atoms in cell-list order, as the engine does
    varifold, pair, eps, probes = make_case()
    query = CurvatureQuery(pair, eps)
    num_ref, den_ref = _sequential_sums(varifold, pair, eps, probes)
    num, den = regularized_sums(varifold, query, probes)
    nodes = np.zeros(len(probes), dtype=bool)
    if isinstance(varifold, VolumetricVarifold):
        nodes = varifold.quadrature_index(probes)[0]
    assert np.array_equal(num[~nodes], num_ref[~nodes])
    assert np.array_equal(den[~nodes], den_ref[~nodes])
    # own quadrature nodes sum cell by cell through the offset table
    if nodes.any():
        _assert_relatively_close(num[nodes], num_ref[nodes])
        _assert_relatively_close(den[nodes], den_ref[nodes])


def test_per_pair_path_expands_positions_only():
    # off-node probes sum over the subcell nodes at s_a, paired with their
    # cells' planes and masses: no per-atom projectors are built or kept
    vol, pair, eps, probes = _volumetric_circle_case()
    s_a = _atom_subdivisions(vol, eps)
    assert s_a > vol.subdivisions
    assert not vol.quadrature_index(probes)[0].any()
    regularized_sums(vol, CurvatureQuery(pair, eps), probes)
    assert ("quadrature", s_a) in vol._caches
    assert ("atoms", s_a) not in vol._caches
    assert ("atom_cloud", s_a) not in vol._caches


def test_node_probes_build_no_per_pair_columns():
    # a query on nodes only takes the offset table, which reads the cell
    # list's order but neither its sorted masses nor projector columns
    vol, pair, eps, probes = _own_node_circle_case()
    nodes = probes[:-1]
    assert vol.quadrature_index(nodes)[0].all()
    query = CurvatureQuery(pair, eps)
    num, den = regularized_sums(vol, query, nodes)
    kinds = {key[0] for key in vol._caches}
    assert "cell_list" in kinds and "sorted_groups" not in kinds
    # the per-pair probe at the centre builds them; node sums keep their bits
    num_all, den_all = regularized_sums(vol, query, probes)
    assert "sorted_groups" in {key[0] for key in vol._caches}
    assert np.array_equal(num_all[:-1], num)
    assert np.array_equal(den_all[:-1], den)


@pytest.mark.parametrize(
    "make_case", [_sphere_case, _volumetric_circle_case, _own_node_circle_case]
)
def test_chunking_does_not_change_sums(monkeypatch, make_case):
    varifold, pair, eps, probes = make_case()
    query = CurvatureQuery(pair, eps)
    cloud = varifold
    if isinstance(varifold, VolumetricVarifold):
        cloud = _expanded_cloud(varifold, eps)
    dist = np.linalg.norm(cloud.positions[None] - probes[:, None], axis=2)
    neighbours = np.sum(dist <= eps, axis=1)
    # The last probe has no atom in reach; every other probe has more
    # neighbours than a budget of 1, and a budget of 100 packs a few probes
    # into each chunk.
    assert neighbours[-1] == 0
    assert neighbours[:-1].min() > 1
    fields = []
    for budget in (1, 100, 10**9):
        _set_budgets(monkeypatch, budget)
        fields.append(curvature_field(varifold, query, probes))
    ref = fields[-1]
    assert list(ref.ok) == [True] * (len(probes) - 1) + [False]
    assert np.all(np.isnan(ref.values[-1]))
    assert ref.denominators[-1] == 0.0
    for field in fields[:-1]:
        assert np.array_equal(field.values, ref.values, equal_nan=True)
        assert np.array_equal(field.denominators, ref.denominators)
        assert np.array_equal(field.ok, ref.ok)


def test_circle_curvature_close_to_analytic():
    shape = Circle(1.0)
    v = SampledManifoldVarifold.from_shape(shape, 16384)
    pair = default_kernel_pair(2, 1)
    query = CurvatureQuery(pair, epsilon=0.05)
    probes = shape.sample(16).positions
    h_approx = approx_mean_curvature(v, query, probes)
    h_true = shape.mean_curvature(probes)
    assert np.max(np.linalg.norm(h_approx - h_true, axis=1)) < 0.01
    # The curvature is exactly the quotient of the two regularized sums.
    num, den = regularized_sums(v, query, probes)
    quotient = -(pair.c_xi / pair.c_rho) * num / den[:, None]
    assert np.array_equal(h_approx, quotient)


def test_sphere_curvature_close_to_analytic():
    shape = Sphere(1.0)
    v = SampledManifoldVarifold.from_shape(shape, 128)
    query = CurvatureQuery(default_kernel_pair(3, 2), epsilon=0.1)
    probes = shape.sample(8).positions
    h_approx = approx_mean_curvature(v, query, probes)
    h_true = shape.mean_curvature(probes)
    assert np.max(np.linalg.norm(h_approx - h_true, axis=1)) < 0.05


def test_unnormalized_pair_gives_same_curvature():
    # The constant ratio in the quotient removes any profile scaling.
    shape = Circle(1.0)
    v = SampledManifoldVarifold.from_shape(shape, 4096)
    probes = shape.sample(8).positions
    raw = natural_pair_from_rho(PolynomialProfile(4), 2, 1)
    h_raw = approx_mean_curvature(v, CurvatureQuery(raw, 0.1), probes)
    h_norm = approx_mean_curvature(
        v, CurvatureQuery(raw.normalized(), 0.1), probes
    )
    np.testing.assert_allclose(h_raw, h_norm, rtol=1e-12, atol=1e-12)


def test_hashed_sums_match_brute_force():
    rng = np.random.default_rng(23)
    positions = rng.uniform(-1.0, 1.0, size=(300, 2))
    theta = rng.uniform(0.0, np.pi, size=300)
    t = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    projectors = t[:, :, None] * t[:, None, :]
    masses = rng.uniform(0.5, 1.5, size=300)
    v = PointCloudVarifold(positions, projectors, masses)
    pair = default_kernel_pair(2, 1)
    query = CurvatureQuery(pair, 0.3)
    probes = rng.uniform(-1.0, 1.0, size=(40, 2))
    num, den = regularized_sums(v, query, probes)
    num_ref, den_ref = _brute_force(v, pair, 0.3, probes)
    np.testing.assert_allclose(num, num_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(den, den_ref, rtol=1e-12, atol=1e-12)


def _sampled_circle_case():
    shape = Circle(1.0)
    v = SampledManifoldVarifold.from_shape(shape, 2048)
    return v, default_kernel_pair(2, 1), 0.15, shape.sample(64).positions


def _off_lattice_sphere_case():
    rng = np.random.default_rng(12)
    probes = rng.standard_normal((200, 3))
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    sphere = SampledManifoldVarifold.from_shape(Sphere(1.0), 32)
    return sphere, default_kernel_pair(3, 2), 0.3, probes


@pytest.mark.parametrize("budget", [100, 10**9])
@pytest.mark.parametrize(
    "make_case",
    [_sampled_circle_case, _off_lattice_sphere_case, _volumetric_circle_case,
     _own_node_circle_case],
)
def test_probe_order_invariance_is_exact(monkeypatch, make_case, budget):
    varifold, pair, eps, probes = make_case()
    _set_budgets(monkeypatch, budget)
    query = CurvatureQuery(pair, eps)
    perm = np.random.default_rng(4).permutation(len(probes))
    a = curvature_field(varifold, query, probes)
    b = curvature_field(varifold, query, probes[perm])
    assert np.array_equal(a.values[perm], b.values, equal_nan=True)
    assert np.array_equal(a.denominators[perm], b.denominators)


@pytest.mark.parametrize(
    "make_case", [_off_lattice_sphere_case, _volumetric_circle_case]
)
def test_runs_stay_within_pair_budget(monkeypatch, make_case):
    # The search returns (probe, group) pairs; a volumetric group is a cell
    # of s^n subcell atoms at centre distance <= eps + h (s - 1) / (2 s),
    # an atomic group is one atom at distance <= eps.
    varifold, pair, eps, probes = make_case()
    runs = []
    inner = cells.CellList.runs

    def spy(self, points, budget, size=1):
        for run, indptr, pos, *rest in inner(self, points, budget, size):
            rows = np.repeat(run, np.diff(indptr))
            # each row in increasing position among the sorted centres
            assert np.all(np.diff(pos)[np.diff(rows) == 0] > 0)
            runs.append((run, rows, self.order[pos]))
            yield run, indptr, pos, *rest

    monkeypatch.setattr(cells.CellList, "runs", spy)
    if isinstance(varifold, VolumetricVarifold):
        cloud = _expanded_cloud(varifold, eps)
        s = round((len(cloud) / len(varifold)) ** (1 / varifold.n))
        centres, group = varifold.cell_centers(), s**varifold.n
        spread = varifold.h * (s - 1) / (2 * s)
    else:
        cloud, centres, group, spread = varifold, varifold.positions, 1, 0.0
    reach = (eps + spread) * (1 + curvature._REACH_SLACK)
    to_centre = np.linalg.norm(centres[None] - probes[:, None], axis=2)
    dist = np.linalg.norm(cloud.positions[None] - probes[:, None], axis=2)
    in_reach = set(zip(*np.nonzero(to_centre <= reach)))
    assert len(in_reach) * group >= np.sum(dist <= eps)
    # runs are cut by candidate counts, which exceed the pairs found: at a
    # budget of 100 every sphere probe would take a run of its own
    for budget in (300, 1000):
        _set_budgets(monkeypatch, budget)
        runs.clear()
        curvature_field(varifold, CurvatureQuery(pair, eps), probes)
        visited = np.concatenate([run for run, _, _ in runs])
        assert np.array_equal(np.sort(visited), np.arange(len(probes)))
        found = [found_pair for _, rows, groups in runs
                 for found_pair in zip(rows, groups)]
        assert len(found) == len(in_reach)
        assert set(found) == in_reach
        multi = [len(groups) * group for run, _, groups in runs
                 if len(run) > 1]
        assert multi and max(multi) <= budget


class _RecordingProfile:
    """A kernel profile that records the radii of its value and derivative
    calls."""

    def __init__(self, profile):
        self.profile = profile
        self.values = []
        self.derivatives = []

    def __call__(self, u):
        self.values.append(np.array(u, dtype=float))
        return self.profile(u)

    def derivative(self, u):
        self.derivatives.append(np.array(u, dtype=float))
        return self.profile.derivative(u)


@pytest.mark.parametrize(
    "make_case", [_off_lattice_sphere_case, _volumetric_circle_case]
)
def test_kernels_see_exactly_the_pairs_in_reach(monkeypatch, make_case):
    # Each run calls pair.xi and pair.rho.derivative once, on the radii
    # |x_j - y| / eps of its pairs within eps and nothing else; outside
    # instrumentation counts kernel evaluations from these calls.
    varifold, pair, eps, probes = make_case()
    _set_budgets(monkeypatch, 100)
    cloud = varifold
    if isinstance(varifold, VolumetricVarifold):
        cloud = _expanded_cloud(varifold, eps)
    dist = np.linalg.norm(cloud.positions[None] - probes[:, None], axis=2)
    spy = copy.copy(pair)
    spy.xi = _RecordingProfile(pair.xi)
    spy.rho = _RecordingProfile(pair.rho)
    field = curvature_field(varifold, CurvatureQuery(spy, eps), probes)
    xi_calls, rho_calls = spy.xi.values, spy.rho.derivatives
    assert len(xi_calls) == len(rho_calls) > 1
    assert not spy.xi.derivatives and not spy.rho.values
    for u_xi, u_rho in zip(xi_calls, rho_calls):
        assert np.array_equal(u_xi, u_rho)
    radii = np.sort(np.concatenate(xi_calls))
    assert len(radii) == np.sum(dist <= eps)
    np.testing.assert_allclose(
        radii, np.sort(dist[dist <= eps]) / eps, rtol=0, atol=1e-12
    )
    ref = curvature_field(varifold, CurvatureQuery(pair, eps), probes)
    assert np.array_equal(field.values, ref.values, equal_nan=True)


def _own_node_sphere_case(subdivisions, edge):
    """Volumetric sphere at eps 0.3 probed at 12 of its own quadrature
    nodes (s_p = subdivisions); the edge sets the atoms' s_a."""
    sample = Sphere(1.0).sample(64)
    mesh = Mesh.covering(sample.positions, edge, pad=0.1)
    vol = discretize(sample, mesh, subdivisions=subdivisions)
    nodes = vol.atoms()[0]
    return vol, default_kernel_pair(3, 2), 0.3, nodes[:: len(nodes) // 12][:12]


_OWN_NODE_CASES = [
    _own_node_circle_case,
    pytest.param(lambda: _own_node_sphere_case(1, 0.0625),
                 id="own_node_sphere_sp1_sa2"),
    pytest.param(lambda: _own_node_sphere_case(2, 0.125),
                 id="own_node_sphere_sp2_sa3"),
    pytest.param(lambda: _own_node_circle_case(2, 0.0625),
                 id="own_node_circle_sp2_sa2"),
    pytest.param(lambda: _own_node_sphere_case(2, 0.0625),
                 id="own_node_sphere_sp2_sa2"),
]


def _atom_subdivisions(vol, eps):
    return max(2, vol.subdivisions, math.ceil(4.0 * vol.h / eps))


def _assert_relatively_close(actual, expected, tol=1e-12):
    """Largest deviation within tol of the largest reference magnitude."""
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= tol * scale


def _count_node_probes(monkeypatch):
    """Record how many probes each offset-table run evaluates."""
    seen = []
    inner = curvature._node_chunk_sums

    def spy(varifold, query, table, probe_base, indptr, found):
        seen.append(len(probe_base))
        return inner(varifold, query, table, probe_base, indptr, found)

    monkeypatch.setattr(curvature, "_node_chunk_sums", spy)
    return seen


@pytest.mark.parametrize("make_case", _OWN_NODE_CASES)
def test_node_probes_match_per_pair_path(monkeypatch, make_case):
    vol, pair, eps, probes = make_case()
    assert _atom_subdivisions(vol, eps) >= vol.subdivisions
    nodes = vol.quadrature_index(probes)[0]
    assert np.sum(nodes) >= 12
    query = CurvatureQuery(pair, eps)
    seen = _count_node_probes(monkeypatch)
    num, den = regularized_sums(vol, query, probes)
    assert sum(seen) == np.sum(nodes)
    monkeypatch.setattr(curvature, "_TABLE_BUDGET", 0)
    seen.clear()
    num_pair, den_pair = regularized_sums(vol, query, probes)
    assert not seen
    num_seq, den_seq = _sequential_sums(vol, pair, eps, probes)
    for ref_num, ref_den in ((num_pair, den_pair), (num_seq, den_seq)):
        _assert_relatively_close(num, ref_num)
        _assert_relatively_close(den, ref_den)
    # off-node probes are untouched by the table
    assert np.array_equal(num[~nodes], num_seq[~nodes])
    assert np.array_equal(den[~nodes], den_seq[~nodes])


def test_probe_one_ulp_off_its_node_takes_per_pair_path(monkeypatch):
    vol, pair, eps, probes = _own_node_circle_case()
    node = probes[:1]
    moved = node.copy()
    moved[0, 1] = np.nextafter(moved[0, 1], np.inf)
    assert vol.quadrature_index(node)[0].all()
    assert not vol.quadrature_index(moved)[0].any()
    seen = _count_node_probes(monkeypatch)
    query = CurvatureQuery(pair, eps)
    num, den = regularized_sums(vol, query, moved)
    assert not seen
    num_seq, den_seq = _sequential_sums(vol, pair, eps, moved)
    assert np.array_equal(num, num_seq)
    assert np.array_equal(den, den_seq)
    regularized_sums(vol, query, node)
    assert seen == [1]


def test_mixed_batch_gives_each_probe_its_own_bits(monkeypatch):
    vol, pair, eps, probes = _own_node_circle_case()
    _set_budgets(monkeypatch, 2000)
    rng = np.random.default_rng(5)
    moved = probes[6:12].copy()
    moved[:, 0] = np.nextafter(moved[:, 0], -np.inf)
    # a few nodes among many other probes, and one without neighbours
    batch = np.vstack([probes[:6], moved, rng.uniform(-1.2, 1.2, (12, 2)),
                       probes[-1:]])
    batch = batch[rng.permutation(len(batch))]
    nodes = vol.quadrature_index(batch)[0]
    assert np.sum(nodes) == 6
    query = CurvatureQuery(pair, eps)
    field = curvature_field(vol, query, batch)
    for k, probe in enumerate(batch):
        alone = curvature_field(vol, query, probe[None])
        assert np.array_equal(alone.values[0], field.values[k], equal_nan=True)
        assert alone.denominators[0] == field.denominators[k]


@pytest.mark.parametrize("budget", [1, 100, 10**9])
@pytest.mark.parametrize("name", ["_PAIR_BUDGET", "_NODE_BUDGET"])
def test_each_path_cuts_runs_by_its_own_budget(monkeypatch, name, budget):
    # a batch of 24 nodes and 13 off-node probes (12 nodes moved by one ulp
    # and the centre, which has no neighbour): cutting either path's runs
    # anywhere leaves every probe's bits
    vol, pair, eps, probes = _own_node_circle_case()
    moved = probes[:12].copy()
    moved[:, 1] = np.nextafter(moved[:, 1], np.inf)
    batch = np.vstack([moved[:6], probes, moved[6:]])
    assert np.sum(vol.quadrature_index(batch)[0]) == 24
    query = CurvatureQuery(pair, eps)
    ref_num, ref_den = regularized_sums(vol, query, batch)
    calls = []
    inner = cells.CellList.runs

    def spy(self, points, budget, size=1):
        runs = list(inner(self, points, budget, size))
        calls.append((budget, len(points), len(runs)))
        yield from runs

    monkeypatch.setattr(cells.CellList, "runs", spy)
    monkeypatch.setattr(curvature, name, budget)
    num, den = regularized_sums(vol, query, batch)
    assert np.array_equal(num, ref_num) and np.array_equal(den, ref_den)
    # the per-pair path runs first
    seen, count, runs = calls[name == "_NODE_BUDGET"]
    assert seen == budget and count == (13 if name == "_PAIR_BUDGET" else 24)
    if budget == 1:
        assert runs == count  # a probe per run
    elif budget == 10**9:
        assert runs == 1


@pytest.mark.parametrize("budget", [1, 300, 32_768])
def test_node_of_an_empty_cell_out_of_reach_sums_to_zero(monkeypatch,
                                                         budget):
    # Nodes of unoccupied cells near the circle's centre have no cell in
    # reach, so their rows of (probe, cell) pairs are empty, at the start,
    # middle or end of a run or as a run of their own.
    vol, pair, eps, probes = _own_node_circle_case()
    _set_budgets(monkeypatch, budget)
    empty = vol._node(np.array([[11, 11], [12, 11], [11, 12]]),
                      np.zeros((3, 2), dtype=int), vol.subdivisions)
    batch = np.vstack([empty[:1], probes[:4], empty[1:], probes[4:8]])
    assert vol.quadrature_index(batch)[0].all()
    query = CurvatureQuery(pair, eps)
    seen = _count_node_probes(monkeypatch)
    num, den = regularized_sums(vol, query, batch)
    assert sum(seen) == len(batch)
    hollow = np.isin(np.arange(len(batch)), [0, 5, 6])
    assert not num[hollow].any() and not den[hollow].any()
    assert np.all(den[~hollow] > 0)
    for k, probe in enumerate(batch):
        alone = regularized_sums(vol, query, probe)
        assert np.array_equal(alone[0], num[k]) and alone[1] == den[k]


def test_oversized_offset_table_falls_back_to_per_pair_path(monkeypatch):
    # The box of offsets spans (s_p (2K + 1) s_a)^n subcell radii, with
    # K = ceil(reach / edge) + 1 cells on each side of the probe's cell.
    vol, pair, eps, probes = _own_node_circle_case()
    probes = probes[:-1]
    s_a = _atom_subdivisions(vol, eps)
    spread = vol.h * (s_a - 1) / (2 * s_a)
    reach = (eps + spread) * (1 + curvature._REACH_SLACK)
    side = 2 * (math.ceil(reach / vol.mesh.edge) + 1) + 1
    box = (vol.subdivisions * side * s_a) ** vol.n
    assert box <= curvature._TABLE_BUDGET
    seen = _count_node_probes(monkeypatch)
    query = CurvatureQuery(pair, eps)
    monkeypatch.setattr(curvature, "_TABLE_BUDGET", box)
    table_num, _ = regularized_sums(vol, query, probes)
    assert sum(seen) == len(probes)
    seen.clear()
    monkeypatch.setattr(curvature, "_TABLE_BUDGET", box - 1)
    num, den = regularized_sums(vol, query, probes)
    assert not seen
    num_seq, den_seq = _sequential_sums(vol, pair, eps, probes)
    assert np.array_equal(num, num_seq)
    assert np.array_equal(den, den_seq)
    _assert_relatively_close(table_num, num_seq)


def _table_radii(vol, eps):
    """Brute-force radii / eps of the offset table: for every probe subnode
    p and cell offset k whose cell has a subcell atom within eps, the
    distances to all s_a^n atoms of that cell."""
    n, s_p, edge = vol.n, vol.subdivisions, vol.mesh.edge
    s_a = _atom_subdivisions(vol, eps)
    reach = math.ceil(eps / edge) + 2
    grid = np.meshgrid(*([np.arange(-reach, reach + 1)] * n), indexing="ij")
    offsets = np.stack([g.ravel() for g in grid], axis=1)
    atom_grid = np.meshgrid(*([np.arange(s_a)] * n), indexing="ij")
    atoms = (np.stack([g.ravel() for g in atom_grid], axis=1) + 0.5) / s_a
    radii = []
    for p in itertools.product(range(s_p), repeat=n):
        node = (np.array(p) + 0.5) / s_p
        d = (offsets[:, None, :] + atoms[None, :, :] - node) * edge
        r = np.linalg.norm(d, axis=2)
        radii.append(r[r.min(axis=1) <= eps].ravel() / eps)
    return np.concatenate(radii)


@pytest.mark.parametrize("make_case", _OWN_NODE_CASES)
def test_node_probes_call_kernels_once_on_table_radii(monkeypatch, make_case):
    # However many runs the node probes take, pair.xi and
    # pair.rho.derivative are each called once per call, on the radii of the
    # offset table and nothing else.
    vol, pair, eps, probes = make_case()
    probes = probes[vol.quadrature_index(probes)[0]]
    _set_budgets(monkeypatch, 100)
    seen = _count_node_probes(monkeypatch)
    spy = copy.copy(pair)
    spy.xi = _RecordingProfile(pair.xi)
    spy.rho = _RecordingProfile(pair.rho)
    field = curvature_field(vol, CurvatureQuery(spy, eps), probes)
    assert len(seen) > 1
    assert len(spy.xi.values) == len(spy.rho.derivatives) == 1
    assert not spy.xi.derivatives and not spy.rho.values
    radii = spy.xi.values[0]
    assert np.array_equal(radii, spy.rho.derivatives[0])
    expected = _table_radii(vol, eps)
    assert len(radii) == len(expected)
    np.testing.assert_allclose(
        np.sort(radii), np.sort(expected), rtol=0, atol=1e-12
    )
    ref = curvature_field(vol, CurvatureQuery(pair, eps), probes)
    assert np.array_equal(field.values, ref.values, equal_nan=True)


_MIXED_VOL, _MIXED_PAIR, _MIXED_EPS, _ = _own_node_circle_case()
_MIXED_NODES = _MIXED_VOL.atoms()[0]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.integers(0, len(_MIXED_NODES) - 1), st.booleans()),
             max_size=12),
    st.lists(st.tuples(*[st.floats(-1.3, 1.3)] * 2), max_size=8),
    st.sampled_from([50, 10**9]),
    st.randoms(use_true_random=False),
)
def test_probe_permutation_invariance_on_mixed_batches(
        picks, others, budget, rand):
    # Own nodes, nodes moved by one ulp and arbitrary points, in any order.
    nodes = [_MIXED_NODES[k].copy() for k, _ in picks]
    for node, (_, moved) in zip(nodes, picks):
        if moved:
            node[0] = np.nextafter(node[0], np.inf)
    batch = np.array(nodes + [list(p) for p in others]).reshape(-1, 2)
    perm = list(range(len(batch)))
    rand.shuffle(perm)
    query = CurvatureQuery(_MIXED_PAIR, _MIXED_EPS)
    with pytest.MonkeyPatch.context() as patch:
        _set_budgets(patch, budget)
        a = curvature_field(_MIXED_VOL, query, batch)
        b = curvature_field(_MIXED_VOL, query, batch[perm])
    assert np.array_equal(a.values[perm], b.values, equal_nan=True)
    assert np.array_equal(a.denominators[perm], b.denominators)


def _single_cell(n):
    """One volumetric cell at the origin of a dyadic mesh of edge 1/8."""
    mesh = Mesh(np.zeros(n), np.ones(n), 0.125)
    t = np.eye(n)[:1]
    proj = t[:, :, None] * t[:, None, :]
    return VolumetricVarifold(mesh, [[0] * n], [1.0], proj, subdivisions=1)


def _corner_case_pythagorean():
    # s = 2: the probe sits at (3/8, 1/2) from the cell's upper corner
    # atom, exactly 5/8 = eps away, and 0.6688 from the cell centre, beyond
    # eps but within eps + h / 4.
    vol = _single_cell(2)
    atom = vol.atoms(2)[0][-1]
    return vol, 0.625, atom + np.array([0.375, 0.5])


def _corner_case_diagonal():
    # s = 3: the probe sits on the cell diagonal at distance eps from the
    # lower corner atom, so the cell centre lies at eps + h / 3 up to
    # rounding, which here falls above that radius.
    vol = _single_cell(3)
    eps = 0.4
    return vol, eps, vol.atoms(3)[0][0] - eps / math.sqrt(3)


@pytest.mark.parametrize(
    "make_case", [_corner_case_pythagorean, _corner_case_diagonal]
)
def test_cell_search_reaches_corner_atom_at_exactly_eps(make_case):
    vol, eps, probe = make_case()
    cloud = _expanded_cloud(vol, eps)
    s = round((len(cloud) / len(vol)) ** (1 / vol.n))
    diff = cloud.positions - probe
    r = np.sqrt(np.einsum("pi,pi->p", diff, diff))
    assert np.sum(r == eps) == 1
    to_centre = float(np.linalg.norm(vol.cell_centers()[0] - probe))
    assert to_centre > eps
    if make_case is _corner_case_diagonal:
        assert to_centre > eps + vol.h * (s - 1) / (2 * s)
    pair = default_kernel_pair(vol.n, 1)
    spy = copy.copy(pair)
    spy.xi = _RecordingProfile(pair.xi)
    spy.rho = _RecordingProfile(pair.rho)
    curvature_field(vol, CurvatureQuery(spy, eps), probe[None])
    radii = np.concatenate(spy.xi.values)
    assert np.array_equal(np.sort(radii), np.sort(r[r <= eps]) / eps)
    assert np.sum(radii == 1.0) == 1


def test_empty_probe_batch():
    for varifold, pair, eps, _ in (
        _off_lattice_sphere_case(), _volumetric_circle_case()
    ):
        n = varifold.n
        field = curvature_field(
            varifold, CurvatureQuery(pair, eps), np.zeros((0, n))
        )
        assert field.values.shape == (0, n)
        assert field.denominators.shape == (0,)
        assert field.ok.shape == (0,)


def test_run_without_neighbours_fails_cleanly(monkeypatch):
    _set_budgets(monkeypatch, 1)
    for varifold, pair, eps, _ in (
        _off_lattice_sphere_case(), _volumetric_circle_case()
    ):
        far = 5.0 + np.arange(4.0)[:, None] * np.ones(varifold.n)
        field = curvature_field(varifold, CurvatureQuery(pair, eps), far)
        assert np.all(np.isnan(field.values))
        assert field.denominators.dtype == np.float64
        assert np.array_equal(field.denominators, np.zeros(len(far)))
        assert not np.any(field.ok)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_probes_raise_before_any_search(monkeypatch, bad):
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(cells.CellList, "runs", no_search)
    for varifold, pair, eps, probes in (
        _off_lattice_sphere_case(), _own_node_circle_case()
    ):
        batch = probes[:5].copy()
        batch[3, 1] = bad
        with pytest.raises(ValueError,
                           match="query points must be finite; row 3"):
            curvature_field(varifold, CurvatureQuery(pair, eps), batch)


def test_finite_probes_off_the_grid_fail_cleanly():
    for varifold, pair, eps, probes in (
        _off_lattice_sphere_case(), _volumetric_circle_case()
    ):
        n = varifold.n
        query = CurvatureQuery(pair, eps)
        huge = np.full((3, n), 1e300)
        huge[1] *= -1.0
        huge[2, 1:] = 0.0
        field = curvature_field(varifold, query, np.vstack([probes[:2], huge]))
        assert list(field.ok) == [True, True, False, False, False]
        assert np.array_equal(field.denominators[2:], np.zeros(3))
        with pytest.raises(DenominatorTooSmall):
            approx_mean_curvature(varifold, query, huge[0])


def test_block_grid_too_large_to_index_raises():
    # eps 1e-7 bins the unit sphere into about (4e7)^3 blocks
    varifold, pair, _, probes = _off_lattice_sphere_case()
    with pytest.raises(ValueError, match="overflows int64 indices"):
        curvature_field(varifold, CurvatureQuery(pair, 1e-7), probes)


def test_atom_permutation_invariance():
    shape = Circle(1.0)
    sample = shape.sample(1024)
    rng = np.random.default_rng(9)
    perm = rng.permutation(len(sample.positions))
    v = PointCloudVarifold(sample.positions, sample.projectors, sample.weights)
    w = PointCloudVarifold(
        sample.positions[perm], sample.projectors[perm], sample.weights[perm]
    )
    query = CurvatureQuery(default_kernel_pair(2, 1), 0.2)
    probes = shape.sample(16).positions
    np.testing.assert_allclose(
        approx_mean_curvature(v, query, probes),
        approx_mean_curvature(w, query, probes),
        rtol=1e-12,
        atol=1e-12,
    )


def test_volumetric_curvature_tracks_sample_curvature():
    shape = Circle(1.0)
    sample = shape.sample(65536)
    v = SampledManifoldVarifold(sample)
    mesh = Mesh(*shape.bounding_box(margin=0.05), 0.2 / 64 / np.sqrt(2.0))
    vol = discretize(sample, mesh)
    query = CurvatureQuery(default_kernel_pair(2, 1), 0.2)
    probes = shape.sample(8).positions
    h_atomic = approx_mean_curvature(v, query, probes)
    h_vol = approx_mean_curvature(vol, query, probes)
    assert np.max(np.linalg.norm(h_vol - h_atomic, axis=1)) < 0.02
    h_true = shape.mean_curvature(probes)
    assert np.max(np.linalg.norm(h_vol - h_true, axis=1)) < 0.1


def test_far_point_raises_with_diagnostics():
    v = SampledManifoldVarifold.from_shape(Circle(1.0), 256)
    query = CurvatureQuery(default_kernel_pair(2, 1), 0.1)
    with pytest.raises(DenominatorTooSmall) as err:
        approx_mean_curvature(v, query, np.array([10.0, 10.0]))
    assert err.value.denominator < err.value.floor
    np.testing.assert_allclose(err.value.point, [10.0, 10.0])


def test_curvature_field_records_failures():
    shape = Circle(1.0)
    v = SampledManifoldVarifold.from_shape(shape, 256)
    query = CurvatureQuery(default_kernel_pair(2, 1), 0.1)
    probes = np.array([[1.0, 0.0], [10.0, 10.0], [0.0, -1.0]])
    field = curvature_field(v, query, probes)
    assert field.n_failures == 1
    assert not field.ok[1]
    assert np.all(np.isnan(field.values[1]))
    assert np.all(np.isfinite(field.values[field.ok]))


def test_probe_coinciding_with_atom_is_finite():
    v = SampledManifoldVarifold.from_shape(Circle(1.0), 512)
    query = CurvatureQuery(default_kernel_pair(2, 1), 0.1)
    h = approx_mean_curvature(v, query, v.positions[0])
    assert np.all(np.isfinite(h))


def test_epsilon_validation():
    pair = default_kernel_pair(2, 1)
    with pytest.raises(ValueError, match="epsilon"):
        CurvatureQuery(pair, 0.0)
    with pytest.raises(ValueError, match="epsilon"):
        CurvatureQuery(pair, 1.5)
    with pytest.raises(ValueError, match="tau"):
        CurvatureQuery(pair, 0.5, tau=0.0)


def test_per_pair_call_holds_a_bounded_transient():
    # One call on the 32,768-atom sphere at 2,048 off-lattice probes, its
    # cell list and sorted groups cached, peaked 3.16 MB above its start
    # (tracemalloc, numpy 2.4.6). The bound leaves 8%: a budget of 65,536
    # candidates, or a run holding another candidate array, exceeds it.
    rng = np.random.default_rng(1)
    probes = rng.standard_normal((2048, 3))
    probes /= np.linalg.norm(probes, axis=1)[:, None]
    sphere = SampledManifoldVarifold.from_shape(Sphere(1.0), 128)
    assert len(sphere) == 32_768
    query = CurvatureQuery(default_kernel_pair(3, 2), 0.2)
    curvature_field(sphere, query, probes)  # the caches and scipy's import
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        field = curvature_field(sphere, query, probes)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert field.n_failures == 0
    assert peak < 3.4e6


def test_large_batch_performance():
    rng = np.random.default_rng(77)
    shape = Circle(1.0)
    v = SampledManifoldVarifold.from_shape(shape, 4096)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=10_000)
    radii = rng.uniform(0.9, 1.1, size=10_000)
    probes = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
    query = CurvatureQuery(default_kernel_pair(2, 1), 0.1)
    start = time.perf_counter()
    field = curvature_field(v, query, probes)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert field.n_failures == 0

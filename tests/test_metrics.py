import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import OptimizeWarning, linprog

from varmcf import cells, metrics
from varmcf.discretization import Mesh, discretize
from varmcf.geometry import Circle, Sphere
from varmcf.metrics import (
    AtomicMeasure,
    _merged_signed_difference,
    ahlfors_scan,
    atomize,
    bounded_lipschitz_distance,
)
from varmcf.varifold import SampledManifoldVarifold


def _dirac(point, mass=1.0):
    return AtomicMeasure(np.atleast_2d(point), np.array([mass]))


def _all_pairs_bl(mu, nu):
    """Reference BL distance: the LP with a slope row for every atom pair."""
    mu = atomize(mu)
    nu = atomize(nu)
    pts, c = _merged_signed_difference(mu, nu)
    k = len(pts)
    if k == 0 or np.all(c == 0):
        return 0.0

    # variables: phi_1..phi_k, a (sup bound), L (lipschitz bound)
    rows, cols, vals = [], [], []
    rhs = []

    def add_row(entries, b):
        r = len(rhs)
        for col, val in entries:
            rows.append(r)
            cols.append(col)
            vals.append(val)
        rhs.append(b)

    for i in range(k):
        add_row([(i, 1.0), (k, -1.0)], 0.0)   # phi_i <= a
        add_row([(i, -1.0), (k, -1.0)], 0.0)  # -phi_i <= a
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    iu, ju = np.triu_indices(k, 1)
    for i, j, d in zip(iu, ju, dist[iu, ju]):
        add_row([(int(i), 1.0), (int(j), -1.0), (k + 1, -d)], 0.0)
        add_row([(int(i), -1.0), (int(j), 1.0), (k + 1, -d)], 0.0)
    add_row([(k, 1.0), (k + 1, 1.0)], 1.0)    # a + L <= 1

    a_ub = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(rhs), k + 2)
    )
    objective = np.zeros(k + 2)
    objective[:k] = -c  # linprog minimizes
    bounds = [(-1.0, 1.0)] * k + [(0.0, 1.0), (0.0, 1.0)]
    res = linprog(
        objective, A_ub=a_ub, b_ub=np.asarray(rhs), bounds=bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return float(-res.fun)


def _shared_support_pair(n, seed):
    # Both clouds draw from one small grid, so coinciding atoms cancel
    # fully (equal masses) or partly (unequal masses) when merged.
    rng = np.random.default_rng(seed)
    grid = rng.normal(size=(12, n))
    masses = np.array([0.25, 0.5, 1.0])
    picks = [rng.choice(12, size=9, replace=False) for _ in range(2)]
    mu, nu = (
        AtomicMeasure(grid[idx], rng.choice(masses, size=len(idx)))
        for idx in picks
    )
    return mu, nu


def _circle_pair(samples, edge, subdivisions):
    circle = Circle()
    sample = circle.sample(samples)
    vol = discretize(sample, Mesh(*circle.bounding_box(margin=0.05), edge),
                     subdivisions=subdivisions)
    return atomize(SampledManifoldVarifold(sample)), atomize(vol)


ORACLE_CASES = {
    "shared-n1": lambda: _shared_support_pair(1, 11),
    "shared-n2": lambda: _shared_support_pair(2, 12),
    "shared-n3": lambda: _shared_support_pair(3, 13),
    "one-sided": lambda: (
        AtomicMeasure(np.random.default_rng(14).normal(size=(10, 2)),
                      np.linspace(0.1, 1.0, 10)),
        AtomicMeasure.zero(2),
    ),
    "circle-edge-0.2": lambda: _circle_pair(128, 0.2, 2),
    # acceptance criterion 04's sampled-vs-binned circle
    "criterion-04": lambda: _circle_pair(256, 0.1 / np.sqrt(2.0), 1),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_matches_all_pairs_oracle(case):
    mu, nu = ORACLE_CASES[case]()
    ref = _all_pairs_bl(mu, nu)
    assert ref > 0
    assert abs(bounded_lipschitz_distance(mu, nu) - ref) <= 1e-12 * ref


def test_shared_support_cases_cancel_atoms():
    # The oracle cases above must exercise full cancellation (c == 0) and
    # partial cancellation (more merged atoms than zeros).
    for n in (1, 2, 3):
        mu, nu = _shared_support_pair(n, 10 + n)
        pts, c = _merged_signed_difference(mu, nu)
        assert len(mu) + len(nu) - len(pts) > np.sum(c == 0) > 0


@pytest.fixture
def lp_matrices(monkeypatch):
    """The constraint matrix of every distance LP solved during the test."""
    captured = []

    def spy(c, A_ub=None, **kwargs):
        captured.append(A_ub)
        return linprog(c, A_ub=A_ub, **kwargs)

    monkeypatch.setattr(metrics, "linprog", spy)
    return captured


def test_lp_keeps_only_positive_to_negative_slope_rows(lp_matrices):
    # (0,0) cancels exactly, (1,0) partly: positive {(1,0), (2,0)},
    # negative {(3,0), (4,0)}, zero {(0,0)}.
    mu = AtomicMeasure(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                       np.array([1.0, 1.0, 2.0]))
    nu = AtomicMeasure(
        np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [4.0, 0.0]]),
        np.array([1.0, 0.5, 1.0, 1.5]),
    )
    got = bounded_lipschitz_distance(mu, nu)
    pts, c = _merged_signed_difference(mu, nu)
    k = len(pts)
    positive, negative = np.sum(c > 0), np.sum(c < 0)
    assert (k, positive, negative) == (5, 2, 2)
    (a_ub,) = lp_matrices
    # the slope rows and a + L <= 1; the sign bounds are variable bounds
    assert a_ub.shape == (positive * negative + 1, k + 2) == (5, 7)
    assert got == pytest.approx(_all_pairs_bl(mu, nu), rel=1e-12)


@pytest.fixture
def lp_solves(monkeypatch):
    """(constraint matrix, result, options) of every distance LP solved in
    the test."""
    captured = []

    def spy(c, A_ub=None, **kwargs):
        res = linprog(c, A_ub=A_ub, **kwargs)
        captured.append((A_ub, res, kwargs.get("options")))
        return res

    monkeypatch.setattr(metrics, "linprog", spy)
    return captured


def _random_clouds(n, size, seed):
    rng = np.random.default_rng(seed)
    return tuple(
        AtomicMeasure(rng.uniform(size=(size, n)), rng.uniform(0.1, 1, size))
        for _ in range(2)
    )


def _slope_rows(a_ub):
    # the row a + L <= 1 besides the slope rows
    return a_ub.shape[0] - 1


# Fixed-seed clouds whose start set misses binding rows, so the solver
# runs more than one round.
LOOP_CASES = {"2d-50": (2, 50, 3), "2d-100": (2, 100, 0), "3d-60": (3, 60, 1)}


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_row_generation_ends_with_no_violated_row(case, lp_solves):
    mu, nu = _random_clouds(*LOOP_CASES[case])
    # a scipy that drops or renames an option warns instead of pricing as
    # asked, so the warning fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error", OptimizeWarning)
        got = bounded_lipschitz_distance(mu, nu)
    assert len(lp_solves) >= 2
    for _, _, options in lp_solves:
        assert options["simplex_dual_edge_weight_strategy"] == "devex"
    ref = _all_pairs_bl(mu, nu)
    assert abs(got - ref) <= 1e-12 * ref

    pts, c = _merged_signed_difference(mu, nu)
    k = len(pts)
    x = lp_solves[-1][1].x
    # the documented map phi_i = sign(c_i) (a - psi_i)
    phi, lip = np.sign(c) * (x[k] - x[:k]), x[k + 1]
    pos, neg = pts[c > 0], pts[c < 0]
    dist = np.linalg.norm(pos[:, None, :] - neg[None, :, :], axis=2)
    excess = phi[c > 0][:, None] - phi[c < 0][None, :] - lip * dist
    assert excess.max() <= 1e-12


SIGN_ROW_CASES = {
    **ORACLE_CASES,
    **{f"loop-{name}": (lambda args=args: _random_clouds(*args))
       for name, args in LOOP_CASES.items()},
}


@pytest.mark.parametrize("case", sorted(SIGN_ROW_CASES))
def test_solutions_keep_every_dropped_sign_row(case, monkeypatch):
    # The LP keeps one sign row per atom, as a bound on psi; the phi and L
    # of every round must still satisfy |phi_i| <= a <= 1 - L for all
    # atoms, cancelled ones included.
    mu, nu = SIGN_ROW_CASES[case]()
    solutions = []

    def spy(*args):
        solution = solve(*args)
        solutions.append(solution)
        return solution

    solve = metrics._solve_rows
    monkeypatch.setattr(metrics, "_solve_rows", spy)
    bounded_lipschitz_distance(mu, nu)
    k = len(_merged_signed_difference(mu, nu)[0])
    assert solutions
    for phi, lip, _ in solutions:
        assert phi.shape == (k,)
        assert 0 <= lip <= 1
        assert np.abs(phi).max() <= 1 - lip + 1e-12


def test_lp_size_guard_raises_before_solving(monkeypatch, lp_solves):
    # The cap bounds the slope rows of every solve: a round that would need
    # more raises before HiGHS sees it.
    mu, nu = _random_clouds(*LOOP_CASES["2d-50"])
    pts, c = _merged_signed_difference(mu, nu)
    positive, negative = int(np.sum(c > 0)), int(np.sum(c < 0))
    expected = bounded_lipschitz_distance(mu, nu)
    sizes = [_slope_rows(a_ub) for a_ub, *_ in lp_solves]
    assert len(sizes) >= 2 and sizes == sorted(set(sizes))

    # each cap below a round's row count stops the solve at that round
    for rounds, needed in enumerate(sizes):
        lp_solves.clear()
        cap = needed - 1
        monkeypatch.setattr(metrics, "MAX_SLOPE_ROWS", cap)
        with pytest.raises(ValueError) as info:
            bounded_lipschitz_distance(mu, nu)
        message = str(info.value)
        assert f"needs {needed} slope rows" in message
        assert f"{positive} positive" in message
        assert f"{negative} negative" in message
        assert f"MAX_SLOPE_ROWS = {cap}" in message
        assert len(lp_solves) == rounds
        assert all(_slope_rows(a_ub) <= cap for a_ub, *_ in lp_solves)

    lp_solves.clear()
    monkeypatch.setattr(metrics, "MAX_SLOPE_ROWS", sizes[-1])
    assert bounded_lipschitz_distance(mu, nu) == expected
    assert [_slope_rows(a_ub) for a_ub, *_ in lp_solves] == sizes


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("sizes", [
    (300, 300),  # |P| |N| over _PAIR_BLOCK: blocks of several rows
    (3, metrics._PAIR_BLOCK + 5),  # one row over _PAIR_BLOCK
], ids=["row-blocks", "long-rows"])
def test_pair_distances_round_as_squared_distances(n, sizes):
    # One rounding of a distance: the row search's blocks equal the square
    # root of the cell-list search's squared distances, bit for bit.
    positive, negative = sizes
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(positive + negative, n))
    pos = rng.permutation(positive + negative)[:positive]
    neg = np.setdiff1d(np.arange(positive + negative), pos)
    blocks = list(metrics._pair_distances(pts, pos, neg))
    assert len(blocks) > 1
    assert [first for first, _ in blocks] == list(
        np.cumsum([0] + [len(block) for _, block in blocks[:-1]])
    )
    got = np.vstack([block for _, block in blocks])
    dist_sq = cells.squared_distances(
        np.ascontiguousarray(pts[neg].T),
        np.tile(np.arange(negative), positive),
        pts[pos],
        np.full(positive, negative),
    )
    np.testing.assert_array_equal(got, np.sqrt(dist_sq).reshape(got.shape))


def _measures(n, count):
    # Atoms on a coarse lattice so that supports often coincide.
    atom = st.tuples(
        st.tuples(*[st.integers(-2, 2)] * n),
        st.sampled_from([0.25, 0.5, 1.0, 1.5]),
    )
    measure = st.lists(atom, max_size=5).map(
        lambda atoms: AtomicMeasure(
            np.array([p for p, _ in atoms], dtype=float).reshape(-1, n),
            np.array([m for _, m in atoms], dtype=float),
        )
    )
    return st.tuples(*[measure] * count)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3).flatmap(lambda n: _measures(n, 3)))
def test_bl_metric_properties(triple):
    mu, nu, rho = triple
    d_mn = bounded_lipschitz_distance(mu, nu)
    tol = dict(rel=1e-12, abs=1e-15)
    assert d_mn == pytest.approx(_all_pairs_bl(mu, nu), **tol)
    assert bounded_lipschitz_distance(nu, mu) == pytest.approx(d_mn, **tol)
    scaled = [AtomicMeasure(m.positions, 2.0 * m.masses) for m in (mu, nu)]
    assert bounded_lipschitz_distance(*scaled) == pytest.approx(
        2.0 * d_mn, **tol
    )
    d_nr = bounded_lipschitz_distance(nu, rho)
    d_mr = bounded_lipschitz_distance(mu, rho)
    assert d_mr <= d_mn + d_nr + 1e-12


def test_unit_diracs_at_distance_one():
    # Optimum splits the budget between height and slope: value 2/3.
    mu = _dirac([0.0, 0.0])
    nu = _dirac([1.0, 0.0])
    assert bounded_lipschitz_distance(mu, nu) == pytest.approx(
        2.0 / 3.0, abs=1e-9
    )


def test_dirac_versus_zero_measure():
    mu = _dirac([0.5, -0.25])
    zero = AtomicMeasure.zero(2)
    assert bounded_lipschitz_distance(mu, zero) == pytest.approx(1.0, abs=1e-9)
    assert bounded_lipschitz_distance(zero, mu) == pytest.approx(1.0, abs=1e-9)


def test_unit_diracs_at_distance_three():
    # Far atoms do not decouple: max over a of min(2a, 3(1-a)) = 6/5,
    # which is why no pair constraint may be pruned.
    mu = _dirac([0.0, 0.0])
    nu = _dirac([3.0, 0.0])
    assert bounded_lipschitz_distance(mu, nu) == pytest.approx(
        1.2, abs=1e-9
    )


def test_identical_measures_have_zero_distance():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 3))
    masses = rng.uniform(0.1, 1.0, size=20)
    mu = AtomicMeasure(pts, masses)
    nu = AtomicMeasure(pts.copy(), masses.copy())
    assert bounded_lipschitz_distance(mu, nu) == 0.0


def test_symmetry_and_homogeneity():
    rng = np.random.default_rng(2)
    mu = AtomicMeasure(rng.normal(size=(8, 2)), rng.uniform(0.1, 1, 8))
    nu = AtomicMeasure(rng.normal(size=(9, 2)), rng.uniform(0.1, 1, 9))
    d_ab = bounded_lipschitz_distance(mu, nu)
    d_ba = bounded_lipschitz_distance(nu, mu)
    assert d_ab == pytest.approx(d_ba, rel=1e-9)
    mu2 = AtomicMeasure(mu.positions, 2.0 * mu.masses)
    nu2 = AtomicMeasure(nu.positions, 2.0 * nu.masses)
    assert bounded_lipschitz_distance(mu2, nu2) == pytest.approx(
        2.0 * d_ab, rel=1e-9
    )


def test_triangle_inequality():
    rng = np.random.default_rng(3)
    measures = [
        AtomicMeasure(rng.normal(size=(7, 2)), rng.uniform(0.1, 1, 7))
        for _ in range(3)
    ]
    d01 = bounded_lipschitz_distance(measures[0], measures[1])
    d12 = bounded_lipschitz_distance(measures[1], measures[2])
    d02 = bounded_lipschitz_distance(measures[0], measures[2])
    assert d02 <= d01 + d12 + 1e-8


def test_independent_solver_cross_check():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(17)
    for _ in range(3):
        k1, k2 = rng.integers(5, 13, size=2)
        mu = AtomicMeasure(rng.normal(size=(k1, 2)), rng.uniform(0.1, 1, k1))
        nu = AtomicMeasure(rng.normal(size=(k2, 2)), rng.uniform(0.1, 1, k2))
        got = bounded_lipschitz_distance(mu, nu)

        pts = np.vstack([mu.positions, nu.positions])
        c = np.concatenate([mu.masses, -nu.masses])
        k = len(pts)
        phi = cvxpy.Variable(k)
        a = cvxpy.Variable(nonneg=True)
        lip = cvxpy.Variable(nonneg=True)
        cons = [cvxpy.abs(phi) <= a, a + lip <= 1]
        for i in range(k):
            for j in range(i + 1, k):
                dij = float(np.linalg.norm(pts[i] - pts[j]))
                cons.append(cvxpy.abs(phi[i] - phi[j]) <= lip * dij)
        prob = cvxpy.Problem(cvxpy.Maximize(c @ phi), cons)
        ref = prob.solve()
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-7)


def test_atomize_volumetric_preserves_mass():
    shape = Circle(1.0)
    sample = shape.sample(512)
    mesh = Mesh(*shape.bounding_box(margin=0.05), 0.2)
    vol = discretize(sample, mesh)
    measure = atomize(vol)
    assert np.sum(measure.masses) == pytest.approx(vol.mass_total(), rel=1e-13)
    assert len(measure) == len(vol) * vol.subdivisions**2


def test_sample_to_cells_distance_bounded_by_cell_diameter():
    # Transporting each sample's weight to its own cell's nodes moves mass
    # a distance at most h, so the distance is at most h * total mass.
    shape = Circle(1.0)
    sample = shape.sample(128)
    mesh = Mesh(*shape.bounding_box(margin=0.05), 0.2)
    vol = discretize(sample, mesh)
    d = bounded_lipschitz_distance(
        atomize(SampledManifoldVarifold(sample)), atomize(vol)
    )
    assert d <= mesh.h * float(np.sum(sample.weights))
    assert d > 0


def test_dimension_mismatch_rejected():
    mu = _dirac([0.0, 0.0])
    others = [
        _dirac([0.0, 0.0, 0.0]),
        AtomicMeasure.zero(3),
        # its one atom has no mass, so the measure is empty
        AtomicMeasure(np.zeros((1, 3)), np.zeros(1)),
    ]
    for other in others:
        for pair in ((mu, other), (other, mu)):
            with pytest.raises(ValueError,
                               match="different ambient dimensions"):
                bounded_lipschitz_distance(*pair)


def test_ahlfors_circle_matches_arc_length_law():
    # Mass of a ball of radius r around a point of the unit circle is the
    # arc length 4 asin(r/2); the ratio to r peaks at 2pi/3 for r = 1.
    shape = Circle(1.0)
    v = SampledManifoldVarifold(shape.sample(8192))
    for r in (0.1, 0.25, 0.5, 1.0):
        rows = ahlfors_scan(v, d=1, radii=[r], max_probes=4)
        expected = 4.0 * np.arcsin(r / 2.0) / r
        for _, _, _, ratio in rows:
            assert ratio == pytest.approx(expected, abs=2e-3)
    rows = ahlfors_scan(v, d=1, radii=[0.1, 0.25, 0.5, 1.0])
    est = max(row[3] for row in rows)
    assert 2.0 <= est <= 2.2


def test_ahlfors_sphere_cap_is_flat():
    # A euclidean ball of radius r cuts a cap of area exactly pi r^2, so
    # the two-sided ratio is pi at every radius.
    v = SampledManifoldVarifold(Sphere(1.0).sample(96))
    rows = ahlfors_scan(v, d=2, radii=[0.2, 0.5, 1.0], max_probes=16)
    est = max(row[3] for row in rows)
    # quadrature granularity inflates small-radius ball masses slightly
    assert est == pytest.approx(np.pi, abs=0.1)
    assert est <= 3.3


def test_ahlfors_empty_ball_sentinel():
    mu = AtomicMeasure(np.array([[0.0, 0.0], [5.0, 0.0]]), np.array([1.0, 1.0]))
    # Support probes always see their own atom, so ratios stay finite.
    rows = ahlfors_scan(mu, d=1, radii=[0.5])
    assert [r[2] for r in rows] == [1.0, 1.0]
    assert all(np.isfinite(r[3]) for r in rows)


def test_ahlfors_rejects_bad_input():
    mu = _dirac([0.0, 0.0])
    with pytest.raises(ValueError, match="positive"):
        ahlfors_scan(mu, d=1, radii=[0.0])
    with pytest.raises(ValueError, match="empty"):
        ahlfors_scan(AtomicMeasure.zero(2), d=1, radii=[0.5])


@pytest.mark.parametrize("max_probes", [0, -3])
def test_ahlfors_scan_rejects_no_probes(max_probes):
    mu = AtomicMeasure(np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="max_probes"):
        ahlfors_scan(mu, d=1, radii=[0.5], max_probes=max_probes)


def test_ahlfors_scan_matches_dense_distances():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        positions = rng.normal(size=(40, n))
        masses = rng.uniform(0.1, 1.0, size=40)
        radii = [0.3, 0.8, 1.5]
        # max_probes above the atom count: every atom is a probe
        rows = ahlfors_scan(AtomicMeasure(positions, masses), d=n,
                            radii=radii, max_probes=64)
        probes = positions
        assert all(np.array_equal(row[0], probes[i // len(radii)])
                   for i, row in enumerate(rows))
        diff = positions[None, :, :] - probes[:, None, :]
        dist = np.sqrt(np.einsum("pmi,pmi->pm", diff, diff))
        balls = [float(np.sum(masses[dist[p] <= r]))
                 for p in range(len(probes)) for r in radii]
        assert [row[2] for row in rows] == balls

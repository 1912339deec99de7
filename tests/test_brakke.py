import sys
import tracemalloc

import numpy as np
import pytest

from varmcf import brakke, curvature
from varmcf.brakke import (
    ConstantsLedger,
    GammaHypothesisError,
    RadialBump,
    brakke_residual,
    constants_ledger,
    exact_flow_residual,
    gamma_feasible,
    measure_curvature_consistency,
    measure_tangent_lipschitz,
)
from varmcf.curvature import CurvatureQuery, curvature_field
from varmcf.discretization import Mesh, discretize
from varmcf.flow import ShrinkingCircle
from varmcf.geometry import Circle, Sphere
from varmcf.kernels import default_kernel_pair


class ConstantVectorField:
    """X(x) = v with zero Jacobian."""

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float)

    def __call__(self, points):
        return np.broadcast_to(self.vector, np.shape(points)).copy()

    def jacobian(self, points):
        n = len(self.vector)
        return np.zeros((len(points), n, n))


class LinearVectorField:
    """X(x) = A x + b with constant Jacobian A."""

    def __init__(self, matrix, offset=None):
        self.matrix = np.asarray(matrix, dtype=float)
        n = self.matrix.shape[0]
        self.offset = (
            np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
        )

    def __call__(self, points):
        return points @ self.matrix.T + self.offset

    def jacobian(self, points):
        return np.broadcast_to(
            self.matrix, (len(points),) + self.matrix.shape
        ).copy()


class BumpVectorField:
    """X(x) = phi(x) v for a scalar bump phi and a fixed direction v."""

    def __init__(self, bump, direction):
        self.bump = bump
        self.direction = np.asarray(direction, dtype=float)

    def __call__(self, points):
        return self.bump(points)[:, None] * self.direction

    def jacobian(self, points):
        grad = self.bump.gradient(points)
        return self.direction[None, :, None] * grad[:, None, :]


def _fd_gradient(f, points, step=1e-6):
    points = np.asarray(points, dtype=float)
    out = np.zeros_like(points)
    for i in range(points.shape[1]):
        dx = np.zeros(points.shape[1])
        dx[i] = step
        out[:, i] = (f(points + dx) - f(points - dx)) / (2.0 * step)
    return out


def test_bump_plateau_and_support():
    bump = RadialBump([0.0, 0.0], 0.5, 1.0)
    inside = np.array([[0.0, 0.0], [0.3, 0.2], [0.0, 0.5]])
    outside = np.array([[1.0, 0.1], [2.0, 0.0]])
    np.testing.assert_array_equal(bump(inside), 1.0)
    np.testing.assert_array_equal(bump(outside), 0.0)
    mid = bump(np.array([[0.8, 0.0]]))
    assert 0.0 < mid[0] < 1.0


def test_bump_gradient_matches_finite_differences():
    bump = RadialBump([0.1, -0.2], 0.4, 1.1)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.3, 1.3, size=(60, 2))
    np.testing.assert_allclose(
        bump.gradient(pts), _fd_gradient(bump, pts), atol=1e-7
    )


def test_bump_hessian_matches_finite_differences():
    bump = RadialBump([0.0, 0.0, 0.2], 0.3, 0.9)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.0, 1.0, size=(40, 3))
    hess = bump.hessian(pts)
    for i in range(3):
        dx = np.zeros(3)
        dx[i] = 1e-5
        fd = (bump.gradient(pts + dx) - bump.gradient(pts - dx)) / 2e-5
        np.testing.assert_allclose(hess[:, :, i], fd, atol=1e-6)


def test_bump_norms():
    bump = RadialBump([0.0, 0.0], 0.5, 1.0)
    assert bump.sup_value == 1.0
    r = np.linspace(0.0, 1.0, 30001)
    pts = np.stack([r, np.zeros_like(r)], axis=1)
    grad_mag = np.linalg.norm(bump.gradient(pts), axis=1)
    assert bump.lip == pytest.approx(np.max(grad_mag), rel=1e-6)
    assert bump.c2_norm == pytest.approx(
        bump.sup_value + bump.sup_gradient + bump.sup_hessian
    )
    with pytest.raises(ValueError):
        RadialBump([0.0, 0.0], 1.0, 0.5)


def test_bump_rejects_points_of_another_dimension():
    # numpy would broadcast a length-1 centre to (0.3, 0.3) on 2-D points
    bump = RadialBump([0.3], 0.2, 1.4)
    pts = np.array([[0.3, 0.3], [0.0, 0.0]])
    for evaluate in (bump, bump.gradient, bump.hessian):
        with pytest.raises(ValueError, match="1-dimensional center"):
            evaluate(pts)
    np.testing.assert_array_equal(bump(np.array([[0.3], [0.35]])), 1.0)
    with pytest.raises(ValueError, match="center"):
        RadialBump([[0.0, 0.0]], 0.2, 1.4)


def test_bump_copies_and_checks_its_center():
    # mutating the caller's array must not move the bump, and a non-finite
    # centre would make phi nan everywhere
    c = np.array([0.3, 0.0])
    bump = RadialBump(c, 0.2, 1.4)
    c[:] = 10.0
    np.testing.assert_array_equal(bump.center, [0.3, 0.0])
    assert bump(np.array([[0.3, 0.0]]))[0] == 1.0
    assert not bump.center.flags.writeable
    for bad in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="center must be finite"):
            RadialBump(bad, 0.2, 1.4)


def test_vector_fields_and_jacobians():
    pts = np.array([[0.1, 0.2], [0.5, -0.3]])
    const = ConstantVectorField([1.0, -2.0])
    np.testing.assert_array_equal(const(pts), [[1.0, -2.0], [1.0, -2.0]])
    np.testing.assert_array_equal(const.jacobian(pts), np.zeros((2, 2, 2)))

    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lin = LinearVectorField(a, offset=[0.5, 0.0])
    np.testing.assert_allclose(lin(pts), pts @ a.T + [0.5, 0.0])
    np.testing.assert_array_equal(lin.jacobian(pts)[1], a)

    bump = RadialBump([0.0, 0.0], 0.2, 1.0)
    field = BumpVectorField(bump, [2.0, 1.0])
    np.testing.assert_allclose(
        field(pts), bump(pts)[:, None] * np.array([2.0, 1.0])
    )
    jac = field.jacobian(pts)
    step = 1e-6
    for i in range(2):
        dx = np.zeros(2)
        dx[i] = step
        fd = (field(pts + dx) - field(pts - dx)) / (2.0 * step)
        np.testing.assert_allclose(jac[:, :, i], fd, atol=1e-7)


def test_gamma_feasible_circle_values():
    value = gamma_feasible(
        c0=2.1,
        lambda_max=1.0,
        beta=0.03133066543641301,
        lip_xi=3.5511389062932333,
        d=1,
    )
    assert value == pytest.approx(6.251919692266722e-05, rel=1e-12)
    with pytest.raises(ValueError, match="fell below"):
        gamma_feasible(
            c0=2.1,
            lambda_max=1.0,
            beta=0.03133066543641301,
            lip_xi=3.5511389062932333,
            d=1,
            floor=1e-4,
        )
    with pytest.raises(ValueError, match="exceed"):
        gamma_feasible(c0=0.9, lambda_max=1.0, beta=0.1, lip_xi=1.0, d=1)


def test_constants_ledger_reference_values():
    ledger = ConstantsLedger(
        d=1,
        ahlfors_constant=2.1,
        curvature_consistency_constant=1.0,
        tangent_lipschitz_constant=1.5,
        kernel_floor=0.03,
        mesh_kernel_ratio=1e-4,
        sup_rho_deriv=2.5,
        sup_rho_second=10.0,
        sup_xi_deriv=3.3,
        initial_mass=2.0 * np.pi,
        horizon=0.125,
    )
    expected = {
        "exact_flow_term_coeff": 18.849555921538759,
        "h_eps_sup_coeff": 5880.0,
        "h_eps_lip_coeff": 91282296.0,
        "measure_transfer_coeff": 11090932200810.094,
        "mass_lower_coeff": 0.0017857142857142857,
        "discrete_mass_lower_coeff": 0.0067152,
        "h_eps_stability_coeff": 12161186.561829878,
        "representation_switch_coeff": 898669638373.07681,
        "combined_rate_coeff": 11989601839202.02,
        "weak_bound_coeff": 1498700229919.1021,
    }
    got = ledger.as_dict()
    for name, value in expected.items():
        assert got[name] == pytest.approx(value, rel=1e-12), name


def test_ledger_rejects_infeasible_ratio():
    with pytest.raises(ValueError, match="mesh_kernel_ratio too large"):
        ConstantsLedger(
            d=1,
            ahlfors_constant=2.1,
            curvature_consistency_constant=1.0,
            tangent_lipschitz_constant=1.5,
            kernel_floor=0.03,
            mesh_kernel_ratio=0.1,
            sup_rho_deriv=2.5,
            sup_rho_second=10.0,
            sup_xi_deriv=3.3,
            initial_mass=2.0 * np.pi,
            horizon=0.125,
        )


def test_constants_ledger_from_pair():
    pair = default_kernel_pair(2, 1)
    ledger = constants_ledger(
        pair,
        d=1,
        ahlfors_constant=2.1,
        curvature_consistency_constant=1.0,
        tangent_lipschitz_constant=1.5,
        mesh_kernel_ratio=6e-5,
        initial_mass=2.0 * np.pi,
        horizon=0.125,
    )
    assert ledger.kernel_floor == pytest.approx(pair.beta(2.1), rel=1e-12)
    assert ledger.combined_rate_coeff > 0


def test_exact_flow_residual_time_rule_orders():
    flow = ShrinkingCircle(1.0)
    phi = RadialBump([0.3, 0.0], 0.2, 1.4)
    coarse = exact_flow_residual(
        flow.trajectory(0.0, 0.125, 16, 512), phi
    )
    fine = exact_flow_residual(
        flow.trajectory(0.0, 0.125, 32, 512), phi
    )
    assert coarse.abs_residual < 1e-7
    assert coarse.abs_residual / fine.abs_residual >= 3.5
    trap = exact_flow_residual(
        flow.trajectory(0.0, 0.125, 32, 512), phi, time_rule="trapezoid"
    )
    assert trap.abs_residual > 50.0 * fine.abs_residual


def test_residual_report_bookkeeping():
    flow = ShrinkingCircle(1.0)
    phi = RadialBump([0.3, 0.0], 0.2, 1.4)
    report = exact_flow_residual(flow.trajectory(0.0, 0.125, 8, 256), phi)
    assert report.recompute() == report.residual
    assert report.recompute(orientation=-1) == -report.residual
    with pytest.raises(ValueError):
        report.recompute(orientation=2)
    d = report.as_dict()
    assert d["residual"] == report.residual
    assert d["t_end"] == 0.125


def test_simpson_needs_even_panels():
    flow = ShrinkingCircle(1.0)
    phi = RadialBump([0.0, 0.0], 0.2, 1.4)
    traj = flow.trajectory(0.0, 0.125, 3, 128)
    with pytest.raises(ValueError, match="even"):
        exact_flow_residual(traj, phi)


def test_brakke_residual_smoke():
    flow = ShrinkingCircle(1.0)
    traj = flow.trajectory(0.0, 0.125, 4, 8192)
    pair = default_kernel_pair(2, 1)
    phi = RadialBump([0.3, 0.0], 0.2, 1.4)
    eps = 0.4
    edge = eps**4 / np.sqrt(2.0)
    report = brakke_residual(traj, edge, pair, eps, phi)
    assert np.isfinite(report.residual)
    assert report.failed_nodes == 0
    assert report.hypothesis_satisfied is None
    assert report.h == pytest.approx(eps**4, rel=1e-12)
    assert report.recompute() == report.residual
    # the discrete residual is small but dominated by eps-scale errors
    assert report.abs_residual < 0.5


def test_brakke_residual_gamma_enforcement():
    flow = ShrinkingCircle(1.0)
    traj = flow.trajectory(0.0, 0.125, 2, 2048)
    pair = default_kernel_pair(2, 1)
    phi = RadialBump([0.0, 0.0], 0.2, 1.4)
    gamma = 6.25e-5
    with pytest.raises(GammaHypothesisError, match="refine"):
        brakke_residual(traj, 0.05, pair, 0.4, phi, gamma=gamma)
    report = brakke_residual(
        traj, 0.05, pair, 0.4, phi, gamma=gamma, enforce_gamma=False
    )
    assert report.hypothesis_satisfied is False
    assert report.as_dict()["hypothesis_satisfied"] is False


def test_brakke_residual_threads_match_serial():
    # Each side gets a fresh trajectory, so the threaded run's snapshot
    # threads build its parameter grid and varifold caches concurrently.
    flow = ShrinkingCircle(1.0)
    pair = default_kernel_pair(2, 1)
    phi = RadialBump([0.3, 0.0], 0.2, 1.4)
    serial = brakke_residual(
        flow.trajectory(0.0, 0.125, 2, 4096), 0.02, pair, 0.4, phi
    )
    threaded = brakke_residual(
        flow.trajectory(0.0, 0.125, 2, 4096), 0.02, pair, 0.4, phi,
        threads=2,
    )
    assert serial.residual == threaded.residual
    for key in ("mass_phi", "curvature_terms", "transport_terms",
                "failed_per_snapshot", "min_den_over_floor"):
        assert np.array_equal(getattr(serial, key), getattr(threaded, key))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_brakke_residual_builds_one_offset_table(monkeypatch, threads):
    # The snapshots share the mesh edge, subdivisions, pair and eps, so the
    # call's one query builds one offset table for all of them (threads
    # that miss together may each build it), and the report is the one
    # that snapshots with a fresh query each give, bit for bit.
    traj = ShrinkingCircle(1.0).trajectory(0.0, 0.125, 4, 4096)
    pair = default_kernel_pair(2, 1)
    phi = RadialBump([0.3, 0.0], 0.2, 1.4)
    eps, edge = 0.4, 0.4**4 / np.sqrt(2.0)
    built = []
    build = curvature._offset_table

    def spy(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(curvature, "_offset_table", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = brakke_residual(traj, edge, pair, eps, phi,
                                 subdivisions=1, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(traj) == 5
    assert 1 <= len(built) <= threads
    mesh = Mesh(*traj.bounding_box(), edge)
    count = len(built)
    terms = [
        brakke._snapshot_terms(
            discretize(traj.sample(i), mesh, subdivisions=1),
            CurvatureQuery(pair, eps), phi,
        )
        for i in range(len(traj))
    ]
    assert len(built) == count + len(traj)
    mass_phi, curvature_terms, transport_terms, failed, margins = zip(*terms)
    fresh = brakke.ResidualReport(
        traj.times, mass_phi, curvature_terms, transport_terms,
        report.time_weights, report.time_rule, failed_per_snapshot=failed,
        min_den_over_floor=margins,
    )
    assert fresh.residual == report.residual
    for key in ("mass_phi", "curvature_terms", "transport_terms",
                "failed_per_snapshot", "min_den_over_floor"):
        assert np.array_equal(getattr(fresh, key), getattr(report, key))


def _residual_peak(panels):
    """tracemalloc peak, in MiB, of a residual-circle-scale residual:
    32,768 samples, eps 0.4, edge eps^4 / sqrt(2), ``panels`` panels."""
    traj = ShrinkingCircle(1.0).trajectory(0.0, 0.125, panels, 32768)
    phi = RadialBump([0.3, 0.0], 0.2, 1.4)
    tracemalloc.start()
    try:
        brakke_residual(traj, 0.4**4 / np.sqrt(2.0), default_kernel_pair(2, 1),
                        0.4, phi, subdivisions=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_brakke_residual_holds_one_snapshot_sample_at_a_time():
    # a trajectory keeps only its parameter grid, so a serial residual
    # holds one snapshot's sample and binning at a time: its peak does not
    # grow with the number of snapshots
    assert _residual_peak(8) < 4.0
    assert abs(_residual_peak(16) - _residual_peak(4)) <= 0.25


def test_brakke_residual_records_failures_per_snapshot():
    flow = ShrinkingCircle(1.0)
    traj = flow.trajectory(0.0, 0.125, 2, 2048)
    pair = default_kernel_pair(2, 1)
    phi = RadialBump([0.3, 0.0], 0.2, 1.4)
    eps, edge = 0.4, 0.02
    clean = brakke_residual(traj, edge, pair, eps, phi)
    assert clean.failed_nodes == 0
    assert np.array_equal(clean.failed_per_snapshot, [0, 0, 0])
    assert np.all(clean.min_den_over_floor >= 1.0)
    # A floor just above the smallest denominator of snapshot 0 fails at
    # least its worst node there.
    tau = 1e-14 * clean.min_den_over_floor[0] * (1.0 + 1e-9)
    report = brakke_residual(traj, edge, pair, eps, phi, tau=tau)
    mesh = Mesh(*traj.bounding_box(), edge)
    query = CurvatureQuery(pair, eps, tau=tau)
    for i in range(len(traj)):
        vol = discretize(traj.sample(i), mesh)
        pts = vol.atoms()[0]
        active = (phi(pts) != 0.0) | np.any(phi.gradient(pts) != 0.0, axis=1)
        field = curvature_field(vol, query, pts[active])
        assert report.failed_per_snapshot[i] == field.n_failures
        assert report.min_den_over_floor[i] == (
            np.min(field.denominators) / query.floor
        )
    assert report.failed_per_snapshot[0] >= 1
    assert report.min_den_over_floor[0] < 1.0
    assert report.failed_nodes == report.failed_per_snapshot.sum()
    assert report.as_dict().keys() == clean.as_dict().keys()
    assert report.as_dict()["failed_nodes"] == report.failed_nodes


def test_brakke_residual_bounds_attached():
    flow = ShrinkingCircle(1.0)
    traj = flow.trajectory(0.0, 0.125, 2, 4096)
    pair = default_kernel_pair(2, 1)
    phi = RadialBump([0.3, 0.0], 0.2, 1.4)
    ledger = constants_ledger(
        pair,
        d=1,
        ahlfors_constant=2.1,
        curvature_consistency_constant=1.0,
        tangent_lipschitz_constant=1.5,
        mesh_kernel_ratio=6e-5,
        initial_mass=2.0 * np.pi,
        horizon=0.125,
    )
    report = brakke_residual(traj, 0.02, pair, 0.4, phi, ledger=ledger)
    assert report.bounds["main_bound"] > 0
    assert report.bounds["weak_bound"] > 0
    assert report.abs_residual <= report.bounds["weak_bound"]
    assert "main_bound" in report.as_dict()


def test_measure_curvature_consistency_circle():
    pair = default_kernel_pair(2, 1)
    estimate, rows = measure_curvature_consistency(
        Circle(1.0), 8192, pair, [0.4, 0.2, 0.1], probe_count=16
    )
    errs = [err for _, err in rows]
    assert errs[0] > errs[1] > errs[2]
    assert 0.0 < estimate < 5.0


def _dense_tangent_lipschitz(shape, resolution, max_separation):
    """All-pairs scan in blocks of 256 rows: the oracle for the cell list.

    Squared distances are summed axis by axis, the one rounding the cell
    list's displacements use, so the two agree bitwise.
    """
    sample = shape.sample(resolution)
    pts = sample.positions
    proj = sample.projectors
    best = 0.0
    block = 256
    for a in range(0, len(pts), block):
        diff = pts[a:a + block, None, :] - pts[None, :, :]
        dist_sq = np.zeros(diff.shape[:2])
        for k in range(diff.shape[2]):
            dist_sq += diff[:, :, k] * diff[:, :, k]
        dist = np.sqrt(dist_sq)
        pdiff = proj[a:a + block, None] - proj[None, :]
        pdist = np.sqrt(np.einsum("pmij,pmij->pm", pdiff, pdiff))
        mask = (dist > 0) & (dist <= max_separation)
        if np.any(mask):
            best = max(best, float(np.max(pdist[mask] / dist[mask])))
    return best


@pytest.mark.parametrize(
    "shape, resolution, max_separation",
    [(Circle(1.0), 1024, 0.1), (Sphere(1.0), 32, 0.2), (Circle(), 4096, 0.1)],
    ids=["circle-1024", "sphere-32", "circle-4096"],
)
def test_measure_tangent_lipschitz_matches_dense_scan(
    monkeypatch, shape, resolution, max_separation
):
    expected = _dense_tangent_lipschitz(shape, resolution, max_separation)
    assert expected > 0.0
    # A small block makes every case span several blocks.
    monkeypatch.setattr(brakke, "_PAIR_BLOCK", 1000)
    got = measure_tangent_lipschitz(shape, resolution, max_separation)
    assert got == expected


def test_measure_tangent_lipschitz_values():
    # On a unit circle the ratio approaches sqrt(2) as points merge.
    got = measure_tangent_lipschitz(Circle(1.0), 1024, max_separation=0.1)
    assert 1.40 <= got <= np.sqrt(2.0) + 1e-9
    got_sphere = measure_tangent_lipschitz(Sphere(1.0), 32, max_separation=0.2)
    assert 1.0 <= got_sphere <= 1.5

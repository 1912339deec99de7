"""End-to-end capability gate.

Each test exercises one advertised capability at a pinned tolerance and
prints a single verdict line. Run with ``pytest -v tests/test_acceptance.py``;
the verdict lines print straight to the terminal even under capture.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import runner_env
from kernel_oracle import normalization_constant
from varmcf.brakke import (
    RadialBump,
    brakke_residual,
    constants_ledger,
    exact_flow_residual,
    gamma_feasible,
    measure_curvature_consistency,
    measure_tangent_lipschitz,
)
from varmcf.curvature import CurvatureQuery, approx_mean_curvature
from varmcf.discretization import Mesh, discretize
from varmcf.flow import ShrinkingCircle
from varmcf.geometry import Circle, Sphere, Torus
from varmcf.kernels import (
    PolynomialProfile,
    default_kernel_pair,
    natural_pair_from_rho,
)
from varmcf.metrics import (
    AtomicMeasure,
    ahlfors_estimate,
    atomize,
    bounded_lipschitz_distance,
)
from varmcf.varifold import SampledManifoldVarifold

PAIR2 = default_kernel_pair(2, 1)

# measured quantities shared between criteria (5 feeds 8 and 9; the
# circle regularity scan feeds 6 and 7)
_SHARED = {}


def _fitted_c1():
    if "c1" not in _SHARED:
        _SHARED["c1"] = measure_curvature_consistency(
            Circle(), 4096, PAIR2, [0.4, 0.2, 0.1, 0.05], probe_count=32
        )
    return _SHARED["c1"]


def _measured_c0():
    if "c0" not in _SHARED:
        v = SampledManifoldVarifold.from_shape(Circle(), 4096)
        _SHARED["c0"] = ahlfors_estimate(
            v, 1, [0.1, 0.25, 0.5, 1.0], max_probes=64
        )
    return _SHARED["c0"]


def _measured_c2():
    if "c2" not in _SHARED:
        _SHARED["c2"] = measure_tangent_lipschitz(Circle(), 4096)
    return _SHARED["c2"]


def _verdict(capsys, num, name, ok, detail, elapsed, limit=None):
    if limit is not None:
        ok = ok and elapsed < limit
        clock = f"{elapsed:.2f}s (limit {limit:g}s)"
    else:
        clock = f"{elapsed:.2f}s"
    line = (f"[criterion {num:02d}] {name}: "
            f"{'PASS' if ok else 'FAIL'} | {detail} | {clock}")
    with capsys.disabled():
        print(flush=True)
        print(line, flush=True)
    assert ok, line


def test_criterion_01_kernel_pair_validity(capsys):
    t0 = time.perf_counter()
    rho = PolynomialProfile(4)
    raw = natural_pair_from_rho(rho, 2, 1)
    r = np.linspace(0.0, 1.0, 1000)
    identity_gap = float(np.max(np.abs(
        -2.0 * raw.xi(r) - r * rho.derivative(r)
    )))
    c_rho = normalization_constant(rho, 1)
    moment_gap = abs(c_rho - 256.0 / 315.0)
    norm = raw.normalized()
    renorm_gap = max(
        abs(normalization_constant(norm.rho, 1) - 1.0),
        abs(normalization_constant(norm.xi, 1) - 1.0),
    )
    ok = identity_gap <= 1e-12 and moment_gap <= 1e-12 \
        and renorm_gap <= 1e-12
    _verdict(
        capsys, 1, "kernel pair validity", ok,
        f"companion identity gap {identity_gap:.1e}, "
        f"|C_rho - 256/315| = {moment_gap:.1e}, "
        f"renormalized moments off by {renorm_gap:.1e}",
        time.perf_counter() - t0, 1.0,
    )


def test_criterion_02_mass_bookkeeping(capsys):
    t0 = time.perf_counter()
    cases = [(Circle(), 4096), (Sphere(), 64), (Torus(), 96)]
    worst = 0.0
    for shape, resolution in cases:
        sample = shape.sample(resolution)
        total = float(np.sum(sample.weights))
        lo, hi = shape.bounding_box(margin=0.05)
        for edge in (0.1, 0.05, 0.025):
            vol = discretize(sample, Mesh(lo, hi, edge))
            worst = max(worst, abs(vol.mass_total() - total) / total)
    ok = worst <= 1e-12
    _verdict(
        capsys, 2, "mass bookkeeping", ok,
        f"3 shapes x 3 edges, worst relative mass gap {worst:.2e} "
        f"(tol 1e-12)",
        time.perf_counter() - t0, 5.0,
    )


def test_criterion_03_measure_approximation_bound(capsys):
    t0 = time.perf_counter()
    circle = Circle()
    sample = circle.sample(4096)
    measure = SampledManifoldVarifold(sample)
    total = measure.mass_total()
    lo, hi = circle.bounding_box(margin=0.05)
    rng = np.random.default_rng(20260822)
    violations = 0
    worst_frac = 0.0
    for diam in (0.1, 0.05, 0.025):
        vol = discretize(sample, Mesh(lo, hi, diam / np.sqrt(2.0)))
        for _ in range(20):
            if rng.random() < 0.5:
                # plane wave: lip = amplitude * |wave vector|
                amp = rng.uniform(0.5, 2.0)
                theta = rng.uniform(0.0, 2.0 * np.pi)
                freq = rng.uniform(1.0, 6.0)
                k = freq * np.array([np.cos(theta), np.sin(theta)])
                shift = rng.uniform(0.0, 2.0 * np.pi)
                lip = amp * freq

                def phi(x, amp=amp, k=k, shift=shift):
                    return amp * np.sin(x @ k + shift)
            else:
                # cone: lip = slope
                amp = rng.uniform(0.5, 2.0)
                apex = rng.uniform(-1.5, 1.5, size=2)
                lip = amp

                def phi(x, amp=amp, apex=apex):
                    return amp * np.linalg.norm(x - apex, axis=-1)
            gap = abs(measure.mass_apply(phi) - vol.mass_apply(phi))
            bound = vol.h * lip * total
            violations += int(gap > bound)
            worst_frac = max(worst_frac, gap / bound)
    ok = violations == 0
    _verdict(
        capsys, 3, "measure approximation bound", ok,
        f"60 function/mesh checks, {violations} violations, worst gap at "
        f"{worst_frac:.3f} of the h lip(phi) mass bound",
        time.perf_counter() - t0, 10.0,
    )


def test_criterion_04_bounded_lipschitz_distance(capsys):
    t0 = time.perf_counter()
    origin = AtomicMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
    unit = AtomicMeasure(np.array([[1.0, 0.0]]), np.array([1.0]))
    gap_pair = abs(
        bounded_lipschitz_distance(origin, unit) - 2.0 / 3.0
    )
    gap_zero = abs(
        bounded_lipschitz_distance(origin, AtomicMeasure.zero(2)) - 1.0
    )
    circle = Circle()
    sample = circle.sample(256)
    vol = discretize(
        sample, Mesh(*circle.bounding_box(margin=0.05), 0.1 / np.sqrt(2.0))
    )
    mu = atomize(SampledManifoldVarifold(sample))
    nu = atomize(vol, subdivisions=1)
    atoms = len(mu) + len(nu)
    dist = bounded_lipschitz_distance(mu, nu)
    bound = 0.1 * 2.0 * np.pi
    ok = gap_pair <= 1e-9 and gap_zero <= 1e-9 \
        and dist <= bound and atoms <= 500
    _verdict(
        capsys, 4, "bounded Lipschitz distance", ok,
        f"analytic gaps {gap_pair:.1e} and {gap_zero:.1e} (tol 1e-9); "
        f"sampled vs binned circle {dist:.4f} <= {bound:.4f} "
        f"with {atoms} atoms",
        time.perf_counter() - t0, 30.0,
    )


def test_criterion_05_curvature_consistency(capsys):
    t0 = time.perf_counter()
    c1_fit, rows = _fitted_c1()
    eps = np.array([e for e, _ in rows])
    err = np.array([e for _, e in rows])
    slope = float(np.polyfit(np.log(eps), np.log(err), 1)[0])
    ok = slope >= 0.8 and np.isfinite(c1_fit) and c1_fit > 0
    _verdict(
        capsys, 5, "curvature consistency", ok,
        f"unit circle, eps {[float(e) for e in eps]}: "
        f"log-log slope {slope:.3f} "
        f"(need >= 0.8), fitted consistency constant {c1_fit:.5f}",
        time.perf_counter() - t0, 10.0,
    )


def test_criterion_06_discretization_stability(capsys):
    t0 = time.perf_counter()
    epsilon = 0.2
    circle = Circle()
    sample = circle.sample(131072)
    reference = SampledManifoldVarifold(sample)
    probes = circle.sample(32).positions
    query = CurvatureQuery(PAIR2, epsilon)
    h_ref = approx_mean_curvature(reference, query, probes)
    c0 = _measured_c0()
    c1_fit, _ = _fitted_c1()
    gamma = gamma_feasible(c0, 1.0, PAIR2.beta(c0), PAIR2.lip_xi, 1)
    ledger = constants_ledger(
        PAIR2, 1, c0, c1_fit, _measured_c2(), gamma, 2.0 * np.pi, 0.125
    )
    lo, hi = circle.bounding_box(margin=0.05)
    hs, diffs = [], []
    within = True
    for frac in (16, 32, 64):
        vol = discretize(
            sample, Mesh(lo, hi, epsilon / frac / np.sqrt(2.0))
        )
        h_vol = approx_mean_curvature(vol, query, probes)
        diff = float(np.max(np.linalg.norm(h_vol - h_ref, axis=1)))
        hs.append(vol.h)
        diffs.append(diff)
        within = within and diff <= \
            ledger.h_eps_stability_coeff * vol.h / epsilon**2
    slope = float(np.polyfit(np.log(hs), np.log(diffs), 1)[0])
    ok = within and slope >= 0.8
    _verdict(
        capsys, 6, "discretization stability", ok,
        f"eps=0.2, h in eps/{{16,32,64}}: diffs "
        f"{['%.2e' % d for d in diffs]} all under the ledger bound, "
        f"slope {slope:.3f} (need >= 0.8)",
        time.perf_counter() - t0, 30.0,
    )


def test_criterion_07_ahlfors_regularity(capsys):
    t0 = time.perf_counter()
    circle_est = _measured_c0()
    sphere = SampledManifoldVarifold.from_shape(Sphere(), 128)
    sphere_est = ahlfors_estimate(
        sphere, 2, [0.25, 0.5, 1.0], max_probes=16
    )
    ok = 2.0 <= circle_est <= 2.2 and np.isfinite(sphere_est) \
        and sphere_est <= 3.3
    _verdict(
        capsys, 7, "Ahlfors regularity scan", ok,
        f"circle estimate {circle_est:.4f} in [2.0, 2.2]; "
        f"sphere estimate {sphere_est:.4f} <= 3.3",
        time.perf_counter() - t0, 10.0,
    )


@pytest.mark.slow
def test_criterion_08_flow_residual(capsys):
    t0 = time.perf_counter()
    flow = ShrinkingCircle(1.0)
    phi = RadialBump(np.array([0.3, 0.0]), 0.2, 1.4)

    # (a) exact measure and exact curvature: pure time-quadrature error
    r64 = exact_flow_residual(flow.trajectory(0.0, 0.125, 64, 2048), phi)
    r128 = exact_flow_residual(flow.trajectory(0.0, 0.125, 128, 2048), phi)
    control_ok = r64.abs_residual <= 1e-6 \
        and r64.abs_residual / r128.abs_residual >= 3.5

    # (b), (c) discretized snapshots at the h = eps^4 coupling
    c1_fit, _ = _fitted_c1()
    # the curvature grows along the flow to 1 / r at the end of the window
    gamma = gamma_feasible(
        2.1, 1.0 / flow.radius_at(0.125), PAIR2.beta(2.1), PAIR2.lip_xi, 1
    )
    ledger = constants_ledger(
        PAIR2, 1, 2.1, c1_fit, _measured_c2(), gamma, 2.0 * np.pi, 0.125
    )
    trajectory = flow.trajectory(0.0, 0.125, 64, 32768)
    epsilons = (0.4, 0.3, 0.2)
    reports = [
        brakke_residual(
            trajectory, eps**4 / np.sqrt(2.0), PAIR2, eps, phi,
            subdivisions=1, gamma=gamma, enforce_gamma=False, ledger=ledger,
        )
        for eps in epsilons
    ]
    values = [rep.abs_residual for rep in reports]
    monotone = values[0] > values[1] > values[2]
    fitted_cprime = values[0] / (epsilons[0] + epsilons[0])
    fit_ok = all(
        v <= fitted_cprime * (e + e) * (1.0 + 1e-12)
        for e, v in zip(epsilons, values)
    )
    recorded = all(rep.hypothesis_satisfied is False for rep in reports)
    weak_ok = all(
        rep.abs_residual <= rep.bounds["weak_bound"] for rep in reports
    )
    ok = control_ok and monotone and fit_ok and recorded and weak_ok
    _verdict(
        capsys, 8, "weak flow residual", ok,
        f"control |R| {r64.abs_residual:.2e} <= 1e-6, halving ratio "
        f"{r64.abs_residual / r128.abs_residual:.1f} >= 3.5; discrete |R| "
        f"{['%.2e' % v for v in values]} monotone={monotone}, under fitted "
        f"C'(eps + h/eps^3) with C'={fitted_cprime:.4f}, mesh-kernel "
        f"hypothesis recorded as violated on all runs",
        time.perf_counter() - t0, 300.0,
    )


def test_criterion_09_constants_ledger(capsys):
    t0 = time.perf_counter()
    d = 1
    c0 = 2.1
    c1, _ = _fitted_c1()
    c2 = _measured_c2()
    m0 = 2.0 * np.pi
    horizon = 0.125
    beta = PAIR2.beta(c0)
    # the largest curvature of the unit circle's flow on [0, horizon]
    lambda_max = 1.0 / ShrinkingCircle(1.0).radius_at(horizon)
    gamma = gamma_feasible(c0, lambda_max, beta, PAIR2.lip_xi, d)
    drho = PAIR2.sup_rho_deriv
    d2rho = PAIR2.sup_rho_second
    dxi = PAIR2.sup_xi_deriv

    # hand evaluation, written out term by term
    c3 = c1 * m0 * (2.0 + c1)
    c5 = c0**2 * 2.0 ** (3 * d + 1) * drho / beta
    c6 = c5 * (1.0 + c0**2 * 2.0 ** (3 * d + 2) * dxi / beta)
    c4 = (2.0 / gamma * (c5**2 + c5) + 2.0 * c5 * c6 + c6) * m0
    c7 = beta / c0 * 2.0 ** (-2 * d - 1)
    c9 = beta - gamma * c0**2 * 2.0 ** (3 * d + 1) * dxi
    c10 = drho * dxi * 2.0 ** (2 * d) * c0**2 / (c7 * c9) \
        + 2.0**d * d2rho * (1.0 + 2.0 * c2) * c0 / c9
    c8 = c10 * m0 * (2.0 * c5 + 1.0)
    c_rate = c3 + c4 + c8
    c_weak = m0 * (2.0 + c1) + c_rate * horizon

    ledger = constants_ledger(PAIR2, d, c0, c1, c2, gamma, m0, horizon)
    expected = {
        "exact_flow_term_coeff": c3,
        "measure_transfer_coeff": c4,
        "h_eps_sup_coeff": c5,
        "h_eps_lip_coeff": c6,
        "mass_lower_coeff": c7,
        "representation_switch_coeff": c8,
        "discrete_mass_lower_coeff": c9,
        "h_eps_stability_coeff": c10,
        "combined_rate_coeff": c_rate,
        "weak_bound_coeff": c_weak,
    }
    worst = max(
        abs(getattr(ledger, name) - value) / abs(value)
        for name, value in expected.items()
    )
    ok = worst <= 1e-10
    _verdict(
        capsys, 9, "constants ledger", ok,
        f"10 derived coefficients vs hand formulas, worst relative "
        f"gap {worst:.2e} (tol 1e-10)",
        time.perf_counter() - t0, 1.0,
    )


DETERMINISM_CONFIGS = {
    "distance.ini": """\
[experiment]
kind = distance-check

[shape]
name = circle

[distance-check]
resolution = 128
edge = 0.15
""",
    "convergence.ini": """\
[experiment]
kind = curvature-convergence

[shape]
name = circle

[curvature-convergence]
resolution = 2048
epsilons = 0.4 0.2
probes = 8
""",
}


def test_criterion_10_deterministic_reruns(capsys, tmp_path):
    t0 = time.perf_counter()
    identical = 0
    checked = 0
    for name, text in DETERMINISM_CONFIGS.items():
        cfg = tmp_path / name
        cfg.write_text(text)
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{name}-{tag}"
            proc = subprocess.run(
                [sys.executable, "-m", "varmcf.experiments", str(cfg),
                 "--out", str(out), "--seed", "3"],
                env=runner_env(), capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for artifact in ("results.csv", "summary.txt", "manifest.json"):
            checked += 1
            identical += int(
                (outs[0] / artifact).read_bytes()
                == (outs[1] / artifact).read_bytes()
            )
    ok = identical == checked
    _verdict(
        capsys, 10, "deterministic reruns", ok,
        f"2 experiment kinds rerun through the command line, "
        f"{identical}/{checked} output files byte-identical",
        time.perf_counter() - t0,
    )

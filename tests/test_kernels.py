"""Kernel pair construction, normalization, and derived constants."""

import numpy as np
import pytest

from kernel_oracle import normalization_constant
from varmcf.kernels import (
    KernelPair,
    PolynomialProfile,
    default_kernel_pair,
    make_kernel_pair,
    mismatched_pair,
    natural_pair_from_rho,
)

GRID = np.linspace(0.0, 1.0, 1001)


def test_natural_companion_closed_form():
    # rho = (1 - r^2)^4 in n = 2 gives xi = 4 r^2 (1 - r^2)^3.
    xi = natural_pair_from_rho(PolynomialProfile(4), 2, 1).xi
    expected = 4.0 * GRID**2 * (1.0 - GRID**2) ** 3
    expected[GRID >= 1.0] = 0.0
    assert np.max(np.abs(xi(GRID) - expected)) < 1e-14


def test_normalization_constant_values():
    # 2 * int_0^1 (1 - r^2)^4 dr = 256/315 for d = 1.
    c = normalization_constant(PolynomialProfile(4), 1)
    assert abs(c - 256.0 / 315.0) < 1e-12
    # Constant profile in d = 2: 2 * pi * int_0^1 r dr = pi.
    c2 = normalization_constant(lambda r: 1.0, 2)
    assert abs(c2 - np.pi) < 1e-12


def test_normalize_pair_unit_constants():
    pair = natural_pair_from_rho(PolynomialProfile(4), n=2, d=1)
    assert abs(pair.c_rho - 256.0 / 315.0) < 1e-12
    assert abs(pair.c_xi - 128.0 / 315.0) < 1e-12
    unit = pair.normalized()
    assert abs(unit.c_rho - 1.0) < 1e-12
    assert abs(unit.c_xi - 1.0) < 1e-12


def test_natural_derivative_identity():
    # xi' = -(rho' + r rho'') / n must hold exactly for natural pairs.
    pair = natural_pair_from_rho(PolynomialProfile(4), n=2, d=1)
    lhs = pair.xi.derivative(GRID)
    rhs = -(pair.rho.derivative(GRID) + GRID * pair.rho.second_derivative(GRID)) / 2.0
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert pair.natural


def test_scaled_kernels_vanish_outside_support():
    pair = default_kernel_pair(n=2, d=1)
    eps = 0.3
    r = np.array([0.3, 0.31, 0.5, 2.0])
    assert np.all(pair.rho(r / eps) == 0.0)
    assert np.all(pair.xi(r / eps) == 0.0)
    inside = np.array([0.0, 0.1, 0.29])
    assert np.all(pair.xi(inside / eps)[1:] > 0.0)


@pytest.mark.parametrize("kind", ["natural", "mismatched"])
@pytest.mark.parametrize("n, d", [(2, 1), (3, 2)])
@pytest.mark.parametrize("exponent", [3, 4, 5, 6])
def test_closed_form_moments_match_quadrature(kind, n, d, exponent):
    # normalized pairs: a wrong closed form leaves the quadrature moment
    # of the rescaled profile away from 1
    pair = make_kernel_pair(kind, n, d, exponent)
    for profile, closed in ((pair.rho, pair.c_rho), (pair.xi, pair.c_xi)):
        oracle = normalization_constant(profile, d)
        assert abs(closed - oracle) <= 1e-12 * oracle


def test_moments_match_the_scipy_beta_formula():
    # The product form of B(x, b + 1) replaces scipy.special in the package.
    from scipy.special import beta, gamma

    for a in range(8):
        for b in range(10):
            profile = PolynomialProfile._factored(1.7, a, b)
            for d in range(1, 5):
                omega = np.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0)
                ref = d * omega * 0.5 * 1.7 * beta(a + d / 2.0, b + 1)
                assert abs(profile.moment(d) - ref) <= 1e-15 * ref


def test_sup_norms_match_analytic_extrema():
    pair = default_kernel_pair(n=2, d=1)
    # Extrema of the normalized profiles, solved exactly offline.
    assert abs(pair.sup_rho_deriv - 2.3429940546235257) < 1e-5
    assert abs(pair.sup_rho_second - 9.84375) < 1e-5
    assert abs(pair.sup_xi_deriv - 3.5511389062932333) < 1e-5


def test_beta_at_reference_ahlfors_constant():
    pair = default_kernel_pair(n=2, d=1)
    # xi is increasing on [0, 1/2], so the min sits at the left endpoint.
    assert abs(pair.beta(2.1) - 0.03133066543641301) < 1e-10
    with pytest.raises(ValueError, match="exceed 1"):
        pair.beta(0.9)


def test_beta_rejects_nan():
    # a NaN c0 fails every comparison, so it would start the grid at NaN
    with pytest.raises(ValueError, match="exceed 1"):
        default_kernel_pair(n=2, d=1).beta(np.nan)


def test_low_exponent_rejected():
    with pytest.raises(ValueError, match="C\\^2"):
        PolynomialProfile(2)


# The superseded checks of KernelPair, kept as the oracle of the closed-form
# rule: grid probes of positivity and of smooth vanishing at r = 1, and a
# least-squares fit of xi to -r rho'(r) / n for naturalness.
_ORACLE_GRID = np.linspace(0.0, 1.0, 4096)


def _oracle_verdict(rho, xi, n):
    """None if the probes reject the pair, else whether it is natural."""
    g = _ORACLE_GRID
    rv, xv = rho(g), xi(g)
    edge, near = 1.0 - 1e-9, 1.0 - 1e-6
    if (np.any(rv < 0) or np.any(xv < 0) or np.any(xv[1:-1] <= 0)
            or abs(float(rho(edge))) > 1e-6 or abs(float(xi(edge))) > 1e-6
            or abs(float(rho.second_derivative(near))) > 1e-2
            or abs(float(xi.derivative(near))) > 1e-2
            or abs(float(rho.derivative(0.0))) > 1e-12):
        return None
    v = -g * rho.derivative(g) / n
    lam = float(v @ xv) / float(xv @ xv)
    return bool(np.max(np.abs(v - lam * xv))
                <= 1e-12 * max(1.0, float(np.abs(v).max())))


def _closed_form_verdict(rho, xi, n, d):
    try:
        return KernelPair(rho, xi, n, d).natural
    except ValueError:
        return None


def _candidate_xis(k, n):
    return [
        PolynomialProfile._factored(c, a, b)
        for c, a, b in [(2.0 * k / n, 1, k - 1), (1.0, 0, k - 1),
                        (0.3, 1, k - 1), (1.0, 1, k), (1.0, 2, k - 1),
                        (1.0, 1, k - 2), (1.0, 1, 1), (1.0, 1, 0)]
    ]


@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("exponent", [3, 4, 5, 6, 7, 8])
def test_closed_form_rule_agrees_with_grid_oracle(n, d, exponent):
    # raw and normalized natural and mismatched pairs, and raw pairs of
    # rho = c q^a (1 - q)^k against xi of other exponents
    rho = PolynomialProfile(exponent)
    mismatched = PolynomialProfile._factored(1.0, 0, exponent - 1)
    pairs = []
    for raw in (natural_pair_from_rho(rho, n, d),
                KernelPair(rho, mismatched, n, d)):
        norm = raw.normalized()
        pairs += [(raw.rho, raw.xi), (norm.rho, norm.xi)]
    for c, a in [(1.0, 0), (2.5, 0), (1.0, 1), (1.0, 2)]:
        rho = PolynomialProfile._factored(c, a, exponent)
        pairs += [(rho, xi) for xi in _candidate_xis(exponent, n)]
    for b in (0, 1, 2):
        rho = PolynomialProfile._factored(1.0, 0, b)
        pairs.append((rho, PolynomialProfile._factored(1.0, 1, 2)))
    verdicts = set()
    for rho, xi in pairs:
        verdict = _oracle_verdict(rho, xi, n)
        assert _closed_form_verdict(rho, xi, n, d) == verdict, (
            (rho.c, rho.a, rho.b), (xi.c, xi.a, xi.b))
        verdicts.add(verdict)
    assert verdicts == {None, True, False}


def test_nonvanishing_profile_rejected():
    # (1 - r^2)^0 is the indicator of the unit ball
    flat = PolynomialProfile._factored(1.0, 0, 0)
    with pytest.raises(ValueError, match="C\\^2"):
        KernelPair(flat, default_kernel_pair(2, 1).xi, 2, 1)


def test_non_polynomial_profile_rejected():
    class Tent:
        def __call__(self, r):
            r = np.asarray(r, dtype=float)
            return np.where(r < 1, (1.0 - r) ** 4, 0.0)

    good = default_kernel_pair(2, 1)
    for rho, xi in ((Tent(), good.xi), (good.rho, Tent())):
        with pytest.raises(TypeError, match="PolynomialProfile"):
            KernelPair(rho, xi, 2, 1)


@pytest.mark.parametrize("b", [1, 2])  # b = 0 is the flat profile above
def test_rho_not_c2_at_the_boundary_rejected(b):
    rho = PolynomialProfile._factored(1.0, 0, b)
    xi = PolynomialProfile._factored(1.0, 1, 3)
    with pytest.raises(ValueError, match="rho must be C\\^2"):
        KernelPair(rho, xi, 2, 1)


@pytest.mark.parametrize("b", [0, 1])
def test_xi_not_c1_at_the_boundary_rejected(b):
    xi = PolynomialProfile._factored(1.0, 1, b)
    with pytest.raises(ValueError, match="xi must be C\\^1"):
        KernelPair(PolynomialProfile(4), xi, 2, 1)


@pytest.mark.parametrize("c", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("which", ["rho", "xi"])
def test_constant_not_positive_and_finite_rejected(c, which):
    pair = default_kernel_pair(2, 1)
    profiles = {"rho": pair.rho, "xi": pair.xi}
    profiles[which] = profiles[which].scaled(c)
    with pytest.raises(ValueError, match="positive finite constant"):
        KernelPair(profiles["rho"], profiles["xi"], 2, 1)


def test_mismatched_pair_flagged_non_natural():
    pair = mismatched_pair(n=2, d=1)
    assert not pair.natural
    assert pair.c_rho == pytest.approx(1.0, abs=1e-12)


def test_make_kernel_pair_dispatch():
    assert make_kernel_pair("natural", 2, 1).natural
    assert not make_kernel_pair("mismatched", 2, 1).natural
    with pytest.raises(ValueError, match="unknown kernel"):
        make_kernel_pair("gaussian", 2, 1)

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


def test_low_exponent_rejected():
    with pytest.raises(ValueError, match="C\\^2"):
        PolynomialProfile(2)


def test_nonvanishing_profile_rejected():
    class Flat:
        def __call__(self, r):
            return np.ones_like(np.asarray(r, dtype=float))

        def derivative(self, r):
            return np.zeros_like(np.asarray(r, dtype=float))

        def second_derivative(self, r):
            return np.zeros_like(np.asarray(r, dtype=float))

    with pytest.raises(ValueError, match="vanish at r = 1"):
        KernelPair(Flat(), default_kernel_pair(2, 1).xi, 2, 1)


def test_rho_with_sloped_origin_rejected():
    class Tent:
        def __call__(self, r):
            r = np.asarray(r, dtype=float)
            return np.where(r < 1, (1.0 - r) ** 4, 0.0)

        def derivative(self, r):
            r = np.asarray(r, dtype=float)
            return np.where(r < 1, -4.0 * (1.0 - r) ** 3, 0.0)

        def second_derivative(self, r):
            r = np.asarray(r, dtype=float)
            return np.where(r < 1, 12.0 * (1.0 - r) ** 2, 0.0)

    with pytest.raises(ValueError, match="rho'\\(0\\)"):
        KernelPair(Tent(), default_kernel_pair(2, 1).xi, 2, 1)


def test_mismatched_pair_flagged_non_natural():
    pair = mismatched_pair(n=2, d=1)
    assert not pair.natural
    assert pair.c_rho == pytest.approx(1.0, abs=1e-12)


def test_make_kernel_pair_dispatch():
    assert make_kernel_pair("natural", 2, 1).natural
    assert not make_kernel_pair("mismatched", 2, 1).natural
    with pytest.raises(ValueError, match="unknown kernel"):
        make_kernel_pair("gaussian", 2, 1)

"""Radial kernel pairs for regularizing varifold quantities.

A pair consists of a profile ``rho`` smoothing the first variation and a
profile ``xi`` smoothing the mass measure, both supported on [0, 1]. The
natural companion of ``rho`` in ambient dimension n is
``xi(r) = -r rho'(r) / n``; with that choice the two scaled kernels satisfy
the differentiation identity that makes the curvature quotient consistent.

Every profile here is ``c q^a (1 - q)^b`` with ``q = r^2`` on r < 1 and zero
outside: rho = ``(1 - q)^k``, its natural companion
``(2k/n) q (1 - q)^(k-1)`` and the mismatched companion ``(1 - q)^(k-1)``.
Values and derivatives are evaluated in that factored form, with integer
powers by repeated multiplication, so they stay accurate near r = 1. The
d-dimensional moment has the closed form ``d omega_d (c/2) B(a + d/2, b + 1)``
and normalization divides c by it, so the quotient carries no spurious
constant.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PolynomialProfile",
    "KernelPair",
    "natural_pair_from_rho",
    "default_kernel_pair",
    "mismatched_pair",
    "make_kernel_pair",
]

# Dense grid used for sup norms, positivity checks, and beta.
_GRID_SIZE = 4096
_GRID = np.linspace(0.0, 1.0, _GRID_SIZE)


def _d_dq(terms):
    """d/dq of a sum of terms c q^i (1 - q)^j, as (c, i, j) terms again."""
    out = []
    for c, i, j in terms:
        if i:
            out.append((c * i, i - 1, j))
        if j:
            out.append((-c * j, i, j - 1))
    return out


def _evaluate(terms, q):
    """Sum of c q^i (1 - q)_+^j over the (c, i, j) terms.

    (1 - q)_+^0 is the indicator of q < 1, so every term vanishes outside
    the support.
    """
    t = np.maximum(1.0 - q, 0.0)
    total = None
    for c, i, j in terms:
        term = c * t if j else c * (t > 0.0)
        for _ in range(j - 1):
            term *= t
        for _ in range(i):
            term *= q
        total = term if total is None else total + term
    return total


class PolynomialProfile:
    """Compactly supported bump c (r^2)^a (1 - r^2)^b on [0, 1], zero outside.

    ``PolynomialProfile(k)`` is (1 - r^2)^k; k must be at least 3 so the
    extension by zero is C^2. Companions and rescaled copies come from
    :meth:`natural_companion` and :meth:`scaled`.
    """

    def __init__(self, exponent=4):
        exponent = int(exponent)
        if exponent < 3:
            raise ValueError(
                "exponent must be >= 3 for a C^2 compactly supported profile"
            )
        self._set(1.0, 0, exponent)

    @classmethod
    def _factored(cls, c, a, b):
        profile = cls.__new__(cls)
        profile._set(c, a, b)
        return profile

    def _set(self, c, a, b):
        self.c, self.a, self.b = float(c), int(a), int(b)
        self._value = [(self.c, self.a, self.b)]
        # f'(r) = 2 r (df/dq); f''(r) = 2 (df/dq) + 4 q (d2f/dq2)
        slope = _d_dq(self._value)
        self._slope = [(2.0 * w, i, j) for w, i, j in slope]
        self._curvature = self._slope + [
            (4.0 * w, i + 1, j) for w, i, j in _d_dq(slope)
        ]

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return _evaluate(self._value, r * r)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        return r * _evaluate(self._slope, r * r)

    def second_derivative(self, r):
        r = np.asarray(r, dtype=float)
        return _evaluate(self._curvature, r * r)

    def scaled(self, factor):
        """The profile multiplied by a constant factor."""
        return self._factored(self.c * factor, self.a, self.b)

    def natural_companion(self, n):
        """Natural xi = -r rho'(r) / n, here (2kc/n) q (1 - q)^(k-1)."""
        if self.a:
            raise ValueError("natural companion needs rho = c (1 - r^2)^k")
        return self._factored(2.0 * self.b * self.c / n, 1, self.b - 1)

    def moment(self, d):
        """d-dimensional moment d * omega_d * int_0^1 profile(r) r^(d-1) dr.

        omega_d is the volume of the d-dimensional unit ball; substituting
        q = r^2 turns the integral into (c/2) B(a + d/2, b + 1). For the
        integer m = b + 1, B(x, m) = (m - 1)! / (x (x + 1) ... (x + m - 1)).
        """
        d = int(d)
        if d < 1:
            raise ValueError("d must be a positive integer")
        omega = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        x = self.a + d / 2.0
        beta = math.factorial(self.b) / math.prod(
            x + i for i in range(self.b + 1)
        )
        return d * omega * 0.5 * self.c * beta


class KernelPair:
    """A validated (rho, xi) profile pair with its derived constants.

    Parameters
    ----------
    rho : profile
        First-variation profile; needs value, derivative, second_derivative,
        moment and scaled.
    xi : profile
        Mass profile; needs value, derivative, moment and scaled.
    n : int
        Ambient dimension.
    d : int
        Surface dimension (for normalization moments).

    Raises
    ------
    ValueError
        If either profile is negative on [0, 1], fails to vanish smoothly
        at 1, xi is not positive inside (0, 1), or rho'(0) != 0 (the
        gradient of the scaled kernel would be discontinuous at the origin).
    """

    def __init__(self, rho, xi, n, d):
        self.rho = rho
        self.xi = xi
        self.n = int(n)
        self.d = int(d)
        if not 1 <= self.d < self.n:
            raise ValueError("need 1 <= d < n")
        self._validate()
        self.c_rho = float(rho.moment(self.d))
        self.c_xi = float(xi.moment(self.d))
        rp = np.abs(rho.derivative(_GRID))
        rpp = np.abs(rho.second_derivative(_GRID))
        xp = np.abs(xi.derivative(_GRID))
        self.sup_rho_deriv = float(rp.max())
        self.sup_rho_second = float(rpp.max())
        self.sup_xi_deriv = float(xp.max())
        # Natural up to scale: xi proportional to -r rho'(r) / n. Scale drops
        # out of the curvature quotient, so proportionality is what matters.
        u = xi(_GRID)
        v = -_GRID * rho.derivative(_GRID) / self.n
        lam = float(v @ u) / float(u @ u)
        self.natural = bool(
            np.max(np.abs(v - lam * u)) <= 1e-12 * max(1.0, float(np.abs(v).max()))
        )

    def _validate(self):
        rv = self.rho(_GRID)
        xv = self.xi(_GRID)
        if np.any(rv < 0) or np.any(xv < 0):
            raise ValueError("profiles must be nonnegative on [0, 1]")
        if np.any(xv[1:-1] <= 0):
            raise ValueError("xi must be positive on the open interval (0, 1)")
        # Smooth vanishing at the support boundary keeps the pair C^2/C^1.
        edge = 1.0 - 1e-9
        if abs(float(self.rho(edge))) > 1e-6 or abs(float(self.xi(edge))) > 1e-6:
            raise ValueError("profiles must vanish at r = 1")
        near = 1.0 - 1e-6
        if abs(float(self.rho.second_derivative(near))) > 1e-2:
            raise ValueError("rho must be C^2 across the support boundary")
        if abs(float(self.xi.derivative(near))) > 1e-2:
            raise ValueError("xi must be C^1 across the support boundary")
        if abs(float(self.rho.derivative(0.0))) > 1e-12:
            raise ValueError("rho'(0) must vanish")

    @property
    def lip_xi(self):
        return self.sup_xi_deriv

    def beta(self, c0):
        """min of xi over [c0^(-2/d) / 4, 1/2] by dense sampling."""
        if c0 <= 1.0:
            raise ValueError("c0 must exceed 1")
        left = c0 ** (-2.0 / self.d) / 4.0
        grid = np.linspace(left, 0.5, _GRID_SIZE)
        return float(self.xi(grid).min())

    def normalized(self):
        """Pair rescaled so both normalization constants equal 1."""
        return KernelPair(
            self.rho.scaled(1.0 / self.c_rho),
            self.xi.scaled(1.0 / self.c_xi),
            self.n,
            self.d,
        )


def natural_pair_from_rho(rho, n, d):
    """Kernel pair with xi the natural companion of rho."""
    return KernelPair(rho, rho.natural_companion(n), n, d)


def default_kernel_pair(n, d, exponent=4):
    """Normalized natural pair built on (1 - r^2)^exponent."""
    pair = natural_pair_from_rho(PolynomialProfile(exponent), n, d)
    return pair.normalized()


def mismatched_pair(n, d, exponent=4):
    """Non-natural pair: the same rho, xi = (1 - r^2)^(exponent - 1).

    xi is positive inside the support but does not satisfy the natural
    relation. Measured, that does not cost consistency: on exact samples
    the log-log slopes of the curvature error in eps (natural/mismatched)
    are 2.00/2.00 on the circle, 1.74/1.76 on the ellipse and 2.00/1.97 on
    the sphere. It is a second pair to compare against, not a control
    that fails. The pair is normalized.
    """
    rho = PolynomialProfile(exponent)
    xi = PolynomialProfile._factored(1.0, 0, rho.b - 1)
    return KernelPair(rho, xi, n, d).normalized()


def make_kernel_pair(name, n, d, exponent=4):
    """Normalized kernel pair by name: "natural" or "mismatched"."""
    if name == "natural":
        return default_kernel_pair(n, d, exponent)
    if name == "mismatched":
        return mismatched_pair(n, d, exponent)
    raise ValueError(f"unknown kernel pair {name!r}")

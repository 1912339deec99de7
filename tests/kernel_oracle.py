"""Independent oracle for kernel moments: adaptive quadrature.

The package computes moments in closed form from the factored profiles;
this integrates any profile numerically, so the two can be compared.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn


def normalization_constant(profile, d):
    """d-dimensional moment d * omega_d * int_0^1 profile(r) r^(d-1) dr.

    omega_d is the volume of the d-dimensional unit ball. Uses adaptive
    quadrature with relative tolerance 1e-12.
    """
    d = int(d)
    if d < 1:
        raise ValueError("d must be a positive integer")
    omega = np.pi ** (d / 2.0) / gamma_fn(d / 2.0 + 1.0)
    val, _ = quad(
        lambda rr: float(profile(rr)) * rr ** (d - 1),
        0.0,
        1.0,
        epsabs=1e-300,
        epsrel=1e-12,
        limit=200,
    )
    return d * omega * val

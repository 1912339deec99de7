"""Assemble the quantitative constants behind the residual bounds.

Everything downstream needs a feasible mesh-to-kernel ratio gamma and a
ledger of derived coefficients. The inputs are either measured (ball
regularity, curvature consistency, plane Lipschitz bound) or read off
the kernel pair.
"""

import numpy as np

from varmcf import (
    Circle,
    SampledManifoldVarifold,
    ShrinkingCircle,
    ahlfors_scan,
    constants_ledger,
    default_kernel_pair,
    gamma_feasible,
)
from varmcf.brakke import (
    measure_curvature_consistency,
    measure_tangent_lipschitz,
)

circle = Circle()
pair = default_kernel_pair(2, 1)

v = SampledManifoldVarifold(circle.sample(4096))
# the largest two-sided ball-mass ratio over the scan
c0 = max(row[3] for row in ahlfors_scan(v, 1, [0.1, 0.25, 0.5, 1.0]))
c1, _ = measure_curvature_consistency(
    circle, 4096, pair, [0.4, 0.2, 0.1, 0.05]
)
c2 = measure_tangent_lipschitz(circle, 4096)
print(f"measured: C0={c0:.4f}  C1={c1:.4f}  C2={c2:.4f}")

beta = pair.beta(c0)
# the flow on [0, 0.125] curves the circle up to 1 / r(0.125)
lambda_max = 1.0 / ShrinkingCircle(1.0).radius_at(0.125)
gamma = gamma_feasible(c0, lambda_max, beta, pair.lip_xi, 1)
print(f"kernel floor beta={beta:.6f}  feasible gamma={gamma:.3e}")

ledger = constants_ledger(pair, 1, c0, c1, c2, gamma, 2 * np.pi, 0.125)
for name, value in ledger.as_dict().items():
    print(f"  {name:28s} = {value:.6e}")

print("the residual rate eps + h/eps^3 at the h = eps^4 coupling:")
for eps in (0.4, 0.2, 0.1):
    print(f"  eps={eps:4.2f}: rate = {eps + eps**4 / eps**3:.3f}")

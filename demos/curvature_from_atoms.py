"""Recover mean curvature from point clouds by kernel regularization.

The estimate divides a mollified first variation by a mollified mass.
On a unit circle the truth is |H| = 1 pointing inward; on a unit sphere
|H| = 2. The error decays like the kernel width.
"""

import numpy as np

from varmcf import (
    Circle,
    CurvatureQuery,
    SampledManifoldVarifold,
    Sphere,
    approx_mean_curvature,
    default_kernel_pair,
)

circle = SampledManifoldVarifold(Circle().sample(16384))
pair2 = default_kernel_pair(2, 1)
probes = Circle().sample(16).positions

print("unit circle, 16384 atoms")
print("  eps     max |H_eps - H|   ratio to eps")
for eps in (0.4, 0.2, 0.1, 0.05):
    h_est = approx_mean_curvature(circle, CurvatureQuery(pair2, eps), probes)
    err = float(np.max(np.linalg.norm(h_est + probes, axis=1)))
    print(f"  {eps:4.2f}   {err:12.3e}      {err / eps:8.5f}")

sphere = SampledManifoldVarifold(Sphere().sample(192))
pair3 = default_kernel_pair(3, 2)
probes3 = Sphere().sample(8).positions

print("unit sphere, Gauss grid at resolution 192")
for eps in (0.4, 0.2, 0.1):
    h_est = approx_mean_curvature(sphere, CurvatureQuery(pair3, eps), probes3)
    err = float(np.max(np.linalg.norm(h_est + 2.0 * probes3, axis=1)))
    print(f"  eps={eps:4.2f}  max error {err:.3e}")

# a probe far from the support has an empty kernel ball; the failure
# carries the offending point and the denominator floor
from varmcf.curvature import DenominatorTooSmall

try:
    approx_mean_curvature(
        circle, CurvatureQuery(pair2, 0.1), np.array([[5.0, 5.0]])
    )
except DenominatorTooSmall as err:
    print(f"far probe rejected as expected: {err}")

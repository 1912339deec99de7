"""Distances between measures and ball-mass regularity scans.

The bounded Lipschitz distance is computed exactly by a linear program
over the union support. Small hand-checkable cases come first, then the
sampled-vs-binned comparison, then Ahlfors ratios mass(B(x,r)) / r^d.
"""

import numpy as np

from varmcf import (
    AtomicMeasure,
    Circle,
    Mesh,
    SampledManifoldVarifold,
    Sphere,
    ahlfors_scan,
    atomize,
    bounded_lipschitz_distance,
    discretize,
)

# two unit atoms at distance 1: optimal test function gives 2/3
mu = AtomicMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
nu = AtomicMeasure(np.array([[1.0, 0.0]]), np.array([1.0]))
print(f"unit atoms at distance 1: {bounded_lipschitz_distance(mu, nu):.9f}"
      f"  (exact 2/3)")

# an unmatched atom costs its own mass
zero = AtomicMeasure.zero(2)
print(f"atom vs nothing: {bounded_lipschitz_distance(mu, zero):.9f}"
      f"  (exact 1)")

# far apart atoms: the sup-norm cap binds, not the Lipschitz part
far = AtomicMeasure(np.array([[3.0, 0.0]]), np.array([1.0]))
print(f"unit atoms at distance 3: {bounded_lipschitz_distance(mu, far):.9f}"
      f"  (exact 6/5)")

# sampled circle vs its binned version: distance below h * mass
circle = Circle()
sample = circle.sample(256)
vol = discretize(sample, Mesh(*circle.bounding_box(0.05), 0.1), subdivisions=1)
d = bounded_lipschitz_distance(
    atomize(SampledManifoldVarifold(sample)), atomize(vol)
)
print(f"sampled vs binned circle: {d:.6f} "
      f"(bound {vol.h * vol.mass_total():.6f})")

# ball masses on the circle: length of the chord-r arc is 4 asin(r/2)
v = SampledManifoldVarifold(circle.sample(4096))
print("circle ball-mass ratios (exact 4 asin(r/2) / r):")
for _, r, ball, ratio in ahlfors_scan(v, 1, [0.25, 1.0], max_probes=1):
    print(f"  r={r:4.2f}: mass={ball:.6f} ratio={ratio:.6f} "
          f"exact={4 * np.arcsin(r / 2) / r:.6f}")

vs = SampledManifoldVarifold(Sphere().sample(128))
rows = ahlfors_scan(vs, 2, [0.25, 0.5, 1.0], max_probes=8)
print(f"sphere: worst two-sided ratio {max(r[3] for r in rows):.4f} "
      f"(caps through a ball of radius r have area pi r^2)")

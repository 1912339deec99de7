"""Test the weak flow identity on the shrinking circle.

A mean curvature flow satisfies, for smooth nonnegative phi,
d/dt int phi = int (-phi |H|^2 + grad phi . H). The residual bundles the
time-integrated identity; it vanishes with the time step for the exact
flow and decays with the kernel width for the discretized one. The exact
control is repeated on the Angenent oval, an exact flow that is not round.
"""

import numpy as np

from varmcf import (
    AngenentOvalFlow,
    RadialBump,
    ShrinkingCircle,
    brakke_residual,
    default_kernel_pair,
    exact_flow_residual,
)

flow = ShrinkingCircle(1.0)
phi = RadialBump(np.array([0.3, 0.0]), 0.2, 1.4)

print("control: exact shapes and exact curvature, Simpson in time")
for panels in (8, 16, 32, 64):
    traj = flow.trajectory(0.0, 0.125, panels, 2048)
    rep = exact_flow_residual(traj, phi)
    print(f"  N_t={panels:3d}  |R| = {rep.abs_residual:.3e}")

print("control on the Angenent oval from t = -2 over [0, 0.5]")
oval, oval_phi = AngenentOvalFlow(-2.0), RadialBump([0.3, 0.5], 0.2, 1.4)
for panels in (2, 4, 8, 16):
    rep = exact_flow_residual(oval.trajectory(0.0, 0.5, panels, 8192), oval_phi)
    print(f"  N_t={panels:3d}  |R| = {rep.abs_residual:.3e}")

print("discrete: binned cells, kernel curvature, h = eps^4")
pair = default_kernel_pair(2, 1)
traj = flow.trajectory(0.0, 0.125, 16, 16384)
for eps in (0.4, 0.3):
    rep = brakke_residual(
        traj, eps**4 / np.sqrt(2.0), pair, eps, phi, subdivisions=1
    )
    print(f"  eps={eps:4.2f}  h={rep.h:.4f}  |R| = {rep.abs_residual:.3e}  "
          f"mass drop = {-rep.mass_difference:.5f}")

# the identity is orientation-exact: reversing time negates the residual
rep = exact_flow_residual(flow.trajectory(0.0, 0.125, 16, 2048), phi)
print(f"time reversal: {rep.residual:+.6e} -> "
      f"{rep.recompute(orientation=-1):+.6e}")

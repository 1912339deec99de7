"""Parabolic scaling oracle for the whole residual pipeline.

Mean curvature flow is invariant under x -> lam x, t -> lam^2 t. With eps,
the cell edge and the test function scaled alike, every discrete quantity
follows exactly when lam is a power of two, since multiplying by it only
shifts binary exponents: d-dimensional masses and the residual scale by
lam^d, the curvature and transport terms by lam^(d - 2), the time weights
by lam^2, and binning, failures and denominator margins do not change.
A misplaced power of eps, h or mass, or an absolute length that these
inputs reach (a pad on the curvature reach, say), breaks one of them.
"""

import numpy as np
import pytest

from varmcf.brakke import RadialBump, brakke_residual
from varmcf.discretization import Mesh, discretize
from varmcf.flow import ShrinkingCircle, ShrinkingSphere
from varmcf.kernels import default_kernel_pair


# flow, panels, resolution and cell edge at scale 1
_CASES = {
    "circle": (ShrinkingCircle, 4, 4096, 0.4**4 / np.sqrt(2.0)),
    "sphere": (ShrinkingSphere, 2, 64, 0.1),
}


def _residual_and_first_cells(kind, lam, subdivisions):
    """The residual report of a shrinking circle or sphere at scale
    ``lam``, the binning of its first snapshot, and its dimension d."""
    flow, panels, resolution, edge = _CASES[kind]
    d = flow.d
    traj = flow(lam).trajectory(0.0, 0.125 * lam**2, panels, resolution)
    center = np.zeros(d + 1)
    center[0] = 0.3 * lam
    phi = RadialBump(center, 0.2 * lam, 1.4 * lam)
    pair = default_kernel_pair(d + 1, d)
    report = brakke_residual(traj, edge * lam, pair, 0.4 * lam, phi,
                             subdivisions=subdivisions)
    mesh = Mesh(*traj.bounding_box(), edge * lam)
    cells = discretize(traj.sample(0), mesh, subdivisions=subdivisions)
    return report, cells, d


@pytest.mark.parametrize("lam", [2.0, 0.5])
@pytest.mark.parametrize("kind, subdivisions", [
    ("circle", 1), ("circle", 2), ("sphere", 1),
])
def test_residual_scales_parabolically(kind, subdivisions, lam):
    ref, ref_cells, d = _residual_and_first_cells(kind, 1.0, subdivisions)
    report, cells, _ = _residual_and_first_cells(kind, lam, subdivisions)
    assert np.array_equal(report.mass_phi, lam**d * ref.mass_phi)
    assert report.residual == lam**d * ref.residual
    for key in ("curvature_terms", "transport_terms"):
        assert np.array_equal(getattr(report, key),
                              lam ** (d - 2) * getattr(ref, key))
    assert np.array_equal(report.time_weights, lam**2 * ref.time_weights)
    for key in ("failed_per_snapshot", "min_den_over_floor"):
        assert np.array_equal(getattr(report, key), getattr(ref, key))
    assert np.array_equal(cells.masses, lam**d * ref_cells.masses)
    assert np.array_equal(cells.projectors, ref_cells.projectors)
    assert np.array_equal(cells.cell_indices, ref_cells.cell_indices)

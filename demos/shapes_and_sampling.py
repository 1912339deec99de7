"""Sample analytic shapes and check the first variation identity.

For a closed surface the first variation of area along a vector field X
equals -integral of H . X. The sampled varifold should reproduce that.
"""

import numpy as np

from varmcf import Circle, Sphere, SampledManifoldVarifold, Torus


class SqueezeField:
    """X(x) = A x, a linear squeeze; its Jacobian is the constant A."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def __call__(self, points):
        return points @ self.matrix.T

    def jacobian(self, points):
        return np.broadcast_to(
            self.matrix, (len(points),) + self.matrix.shape
        )


def check(shape, resolution, field):
    v = SampledManifoldVarifold(shape.sample(resolution))
    sample = shape.sample(resolution)
    h_vec = shape.mean_curvature(sample.positions)
    lhs = v.first_variation(field)
    rhs = -np.sum(sample.weights * np.einsum(
        "ki,ki->k", h_vec, field(sample.positions)
    ))
    name = type(shape).__name__
    print(f"{name:8s} mass={v.mass_total():.6f} "
          f"deltaV(X)={lhs:+.6f} -int H.X={rhs:+.6f} "
          f"gap={abs(lhs - rhs):.2e}")


field2 = SqueezeField([[0.3, 0.1], [0.0, -0.2]])
field3 = SqueezeField([[0.3, 0.1, 0.0], [0.0, -0.2, 0.0], [0.1, 0.0, 0.1]])

check(Circle(), 4096, field2)
check(Sphere(), 96, field3)
check(Torus(), 128, field3)

# identity field: divergence along a d-plane is d, so deltaV = d * mass
v = SampledManifoldVarifold(Circle().sample(4096))
identity = SqueezeField(np.eye(2))
print(f"identity field on the circle: {v.first_variation(identity):.8f} "
      f"vs d*mass = {v.mass_total():.8f}")

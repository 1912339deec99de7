"""varmcf: volumetric varifold discretizations of surface measures,
kernel-regularized mean curvature, and weak mean curvature flow diagnostics.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    brakke,
    curvature,
    discretization,
    flow,
    geometry,
    kernels,
    metrics,
    varifold,
)
from .brakke import (  # noqa: F401
    ConstantsLedger,
    GammaHypothesisError,
    RadialBump,
    brakke_residual,
    constants_ledger,
    exact_flow_residual,
    gamma_feasible,
)
from .curvature import (  # noqa: F401
    CurvatureQuery,
    DenominatorTooSmall,
    approx_mean_curvature,
    curvature_field,
    regularized_sums,
)
from .discretization import Mesh, discretize  # noqa: F401
from .flow import (  # noqa: F401
    AngenentOvalFlow,
    FlowTrajectory,
    ShrinkingCircle,
    ShrinkingSphere,
)
from .geometry import (  # noqa: F401
    AngenentOval,
    Circle,
    Ellipse,
    Sphere,
    Torus,
    WeightedSample,
    make_shape,
)
from .kernels import (  # noqa: F401
    KernelPair,
    default_kernel_pair,
    make_kernel_pair,
)
from .metrics import (  # noqa: F401
    AtomicMeasure,
    ahlfors_scan,
    atomize,
    bounded_lipschitz_distance,
)
from .varifold import (  # noqa: F401
    PointCloudVarifold,
    SampledManifoldVarifold,
    VolumetricVarifold,
)

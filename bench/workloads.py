"""The three benchmark workloads: inputs from a seed, one op, output checks.

Each workload object is the set-up a user pays once per process: the kernel
pair and the generated inputs. ``op`` then builds fresh library objects
(trajectory, varifolds, meshes), so no per-varifold ``_caches`` entry or
trajectory sample cache carries over from one op to the next. ``check``
returns the list of problems found in one op's output; an empty list means
the op is correct.

Every call into a library layer goes through ``tracer.call`` (or through a
module attribute the tracer patches), so the traced run can time it. The
untraced run passes ``tracing.NULL_TRACER``, which calls straight through.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from varmcf.brakke import RadialBump, brakke_residual, exact_flow_residual
from varmcf.curvature import CurvatureQuery, curvature_field
from varmcf.discretization import Mesh, discretize
from varmcf.flow import ShrinkingCircle
from varmcf.geometry import Circle, Sphere
from varmcf.kernels import default_kernel_pair
from varmcf.metrics import atomize, bounded_lipschitz_distance
from varmcf.varifold import SampledManifoldVarifold

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Refactors of the library must reproduce recorded floating-point outputs
# to this relative tolerance; LP values are compared to the solver tolerance.
REL_TOL = 1e-12
LP_TOL = 1e-9
# Regularized curvature on the unit sphere must stay within this multiple of
# eps of the exact curvature (measured: 0.034 eps at eps = 0.2).
CURVATURE_ERROR_PER_EPS = 0.1
# Probes whose curvature vectors are recorded for the sphere reference.
REFERENCE_PROBES = 64


def _rel_err(actual, expected):
    """Largest deviation relative to the largest reference magnitude."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return math.inf
    return float(np.max(np.abs(actual - expected))
                 / np.max(np.abs(expected)))


def _compare(problems, label, actual, expected, tol=REL_TOL):
    err = _rel_err(actual, expected)
    if not err <= tol:
        problems.append(f"{label} differs from the reference by {err:.3e} "
                        f"relative (tolerance {tol:g})")


class ResidualCircle:
    """Weak-flow residual of a shrinking circle: criterion 08 at one scale."""

    name = "residual-circle"
    settings = dict(t_end=0.125, panels=4, samples=32768, epsilon=0.4,
                    subdivisions=1, bump_radii=(0.2, 1.4), bump_offset=0.3)

    def __init__(self, seed, **overrides):
        cfg = {**self.settings, **overrides}
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.center = rng.uniform(-0.05, 0.05, size=2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        bump_center = self.center + cfg["bump_offset"] * np.array(
            [math.cos(angle), math.sin(angle)]
        )
        self.phi = RadialBump(bump_center, *cfg["bump_radii"])
        self.pair = default_kernel_pair(2, 1)
        self.edge = cfg["epsilon"] ** 4 / math.sqrt(2.0)
        self._exact = None

    def op(self, tracer):
        cfg = self.cfg
        flow = ShrinkingCircle(1.0, self.center)
        trajectory = tracer.call(
            "flow.build", flow.trajectory,
            0.0, cfg["t_end"], cfg["panels"], cfg["samples"],
        )
        tracer.instrument_trajectory(trajectory)
        return tracer.call(
            "brakke", brakke_residual,
            trajectory, self.edge, tracer.pair(self.pair), cfg["epsilon"],
            self.phi, subdivisions=cfg["subdivisions"],
        )

    def _exact_terms(self):
        """Mass terms of the undiscretized snapshots, computed once."""
        if self._exact is None:
            cfg = self.cfg
            trajectory = ShrinkingCircle(1.0, self.center).trajectory(
                0.0, cfg["t_end"], cfg["panels"], cfg["samples"]
            )
            exact = exact_flow_residual(trajectory, self.phi)
            masses = np.array([
                trajectory.sample(i).total_weight()
                for i in range(len(trajectory))
            ])
            self._exact = (exact.mass_phi, masses)
        return self._exact

    def check(self, report, reference):
        problems = []
        if report.failed_nodes != 0:
            problems.append(f"{report.failed_nodes} failed curvature nodes")
        if report.recompute(-1) != -report.residual:
            problems.append("time reversal does not negate the residual "
                            "exactly")
        # Binning moves each atom by at most h/2, so the phi-mass of a
        # snapshot moves by at most h * lip(phi) * mass (transfer bound).
        exact_mass_phi, masses = self._exact_terms()
        gap = np.abs(report.mass_phi - exact_mass_phi)
        bound = report.h * self.phi.lip * masses
        if not np.all(gap <= bound):
            problems.append("snapshot phi-mass breaks the h*lip*mass "
                            f"transfer bound: gap {gap.max():.3e}")
        if reference is not None:
            for key in ("mass_phi", "curvature_terms", "transport_terms"):
                _compare(problems, key, getattr(report, key), reference[key])
        return problems

    def record(self, report):
        return {key: getattr(report, key).tolist()
                for key in ("mass_phi", "curvature_terms", "transport_terms")}


class BlResult:
    """Output of one bounded-Lipschitz op, with its a-priori bound."""

    def __init__(self, distance, bound):
        self.distance = distance
        self.bound = bound


class BlCircle:
    """Exact BL distance of a sampled circle to its binned version."""

    name = "bl-circle"
    settings = dict(samples=128, edge=0.2, subdivisions=2, margin=0.05)

    def __init__(self, seed, **overrides):
        cfg = {**self.settings, **overrides}
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.shape = Circle(1.0, rng.uniform(0.0, cfg["edge"], size=2))

    def op(self, tracer):
        cfg = self.cfg
        sample = tracer.call("geometry.sample", self.shape.sample,
                             cfg["samples"])
        mesh = Mesh(*self.shape.bounding_box(margin=cfg["margin"]),
                    cfg["edge"])
        vol = tracer.call("discretization", discretize, sample, mesh,
                          subdivisions=cfg["subdivisions"])
        varifold = tracer.call("varifold.build", SampledManifoldVarifold,
                               sample)
        mu = tracer.call("metrics.atomize", atomize, varifold)
        nu = tracer.call("metrics.atomize", atomize, vol)
        distance = tracer.call("metrics.bl", bounded_lipschitz_distance,
                               mu, nu)
        return BlResult(distance, mesh.h * sample.total_weight())

    def check(self, result, reference):
        problems = []
        if not 0.0 < result.distance <= result.bound:
            problems.append(f"distance {result.distance!r} outside "
                            f"(0, h * mass = {result.bound!r}]")
        if reference is not None:
            gap = abs(result.distance - reference["distance"])
            if not gap <= LP_TOL:
                problems.append(f"distance differs from the reference by "
                                f"{gap:.3e} (tolerance {LP_TOL:g})")
        return problems

    def record(self, result):
        return {"distance": result.distance}


class CurvatureSphere:
    """Kernel curvature of one sphere cloud at many off-lattice probes."""

    name = "curvature-sphere"
    settings = dict(resolution=128, probes=2048, epsilon=0.2)

    def __init__(self, seed, **overrides):
        cfg = {**self.settings, **overrides}
        self.cfg = cfg
        self.pair = default_kernel_pair(3, 2)
        self.sample = Sphere().sample(cfg["resolution"])
        rng = np.random.default_rng(seed)
        probes = rng.standard_normal((cfg["probes"], 3))
        self.probes = probes / np.linalg.norm(probes, axis=1)[:, None]
        self._exact = None

    def op(self, tracer):
        varifold = tracer.call("varifold.build", SampledManifoldVarifold,
                               self.sample)
        query = CurvatureQuery(tracer.pair(self.pair), self.cfg["epsilon"])
        return tracer.call("curvature", curvature_field, varifold, query,
                           self.probes)

    def _reference_rows(self):
        count = len(self.probes)
        return np.unique(
            np.linspace(0, count - 1, REFERENCE_PROBES).round().astype(int)
        )

    def check(self, field, reference):
        problems = []
        if field.n_failures:
            problems.append(f"{field.n_failures} failed probes")
        if self._exact is None:
            self._exact = Sphere().mean_curvature(self.probes)
        eps = self.cfg["epsilon"]
        err = float(np.max(np.linalg.norm(field.values - self._exact, axis=1)))
        if not err <= CURVATURE_ERROR_PER_EPS * eps:
            problems.append(f"max |H_eps - H| = {err:.3e} exceeds "
                            f"{CURVATURE_ERROR_PER_EPS:g} * eps")
        if reference is not None:
            _compare(problems, "sampled curvature vectors",
                     field.values[self._reference_rows()], reference["values"])
            _compare(problems, "sum of |H|^2",
                     np.sum(field.values**2), reference["sum_sq"])
        return problems

    def record(self, field):
        return {"values": field.values[self._reference_rows()].tolist(),
                "sum_sq": float(np.sum(field.values**2))}


WORKLOADS = {cls.name: cls for cls in (ResidualCircle, BlCircle,
                                       CurvatureSphere)}


def load_reference(name, seed):
    """Recorded output of the default-size op for this seed, or None."""
    with open(REFERENCE_PATH) as fh:
        recorded = json.load(fh)["workloads"]
    return recorded.get(name, {}).get(str(seed))

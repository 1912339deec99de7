"""Space-time residual of the weak mean curvature flow identity.

For a smooth flow and a time-independent C^2 test function phi,

    d/dt  integral phi d||M(t)||
        = integral ( -phi |H|^2 + grad phi . H ) d||M(t)||,

so the residual of the time-integrated identity measures how far a
discrete trajectory is from flowing by its regularized mean curvature.
This module assembles that residual for volumetric snapshots, evaluates
the feasibility and rate constants that bound it, and provides the radial
C^2 test functions used throughout.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .cells import CellList
from .curvature import CurvatureQuery, curvature_field
from .discretization import Mesh, discretize
from .varifold import SampledManifoldVarifold

__all__ = [
    "RadialBump",
    "ConstantsLedger",
    "constants_ledger",
    "gamma_feasible",
    "GammaHypothesisError",
    "measure_curvature_consistency",
    "measure_tangent_lipschitz",
    "ResidualReport",
    "brakke_residual",
    "exact_flow_residual",
]

_NORM_GRID_SIZE = 20001
# Candidate point pairs held at once by measure_tangent_lipschitz.
_PAIR_BLOCK = 65_536


def _smoothstep(u):
    return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def _smoothstep_d1(u):
    return 30.0 * u**2 * (1.0 - u) ** 2


def _smoothstep_d2(u):
    return 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)


class RadialBump:
    """C^2 radial cutoff: 1 inside, 0 outside, quintic ramp in between.

    The ramp is a function of squared distance, so the function is C^2
    everywhere including the center and both ramp edges. ``sup_value``,
    ``sup_gradient``, and ``sup_hessian`` are computed on a dense radial
    grid; ``c2_norm`` is their sum.
    """

    def __init__(self, center, inner_radius, outer_radius):
        # a read-only copy, so that the caller's array cannot move it
        center = np.array(center, dtype=float)
        if center.ndim != 1 or len(center) == 0:
            raise ValueError("center must be a point, shape (n,)")
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        center.flags.writeable = False
        inner_radius = float(inner_radius)
        outer_radius = float(outer_radius)
        if not 0.0 <= inner_radius < outer_radius:
            raise ValueError("need 0 <= inner_radius < outer_radius")
        self.center = center
        self.inner_radius = inner_radius
        self.outer_radius = outer_radius
        self._s0 = inner_radius**2
        self._s1 = outer_radius**2
        self._ds = self._s1 - self._s0
        self._compute_norms()

    def _ramp(self, s):
        u = np.clip((s - self._s0) / self._ds, 0.0, 1.0)
        return 1.0 - _smoothstep(u)

    def _rel(self, points):
        """Points minus the centre; the points' last axis must match it."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != self.center.shape:
            raise ValueError(
                f"points of shape {points.shape} do not match the "
                f"{len(self.center)}-dimensional center"
            )
        return points - self.center

    def __call__(self, points):
        rel = self._rel(points)
        return self._ramp(np.einsum("...i,...i->...", rel, rel))

    def gradient(self, points):
        rel = self._rel(points)
        s = np.einsum("...i,...i->...", rel, rel)
        u = np.clip((s - self._s0) / self._ds, 0.0, 1.0)
        coef = -_smoothstep_d1(u) * (2.0 / self._ds)
        return coef[..., None] * rel

    def hessian(self, points):
        rel = self._rel(points)
        s = np.einsum("...i,...i->...", rel, rel)
        u = np.clip((s - self._s0) / self._ds, 0.0, 1.0)
        a = -_smoothstep_d1(u) * (2.0 / self._ds)
        b = -_smoothstep_d2(u) * (4.0 / self._ds**2)
        n = rel.shape[-1]
        eye = np.eye(n)
        return (
            a[..., None, None] * eye
            + b[..., None, None] * rel[..., :, None] * rel[..., None, :]
        )

    def _compute_norms(self):
        r = np.linspace(0.0, self.outer_radius, _NORM_GRID_SIZE)
        s = r**2
        u = np.clip((s - self._s0) / self._ds, 0.0, 1.0)
        grad_mag = _smoothstep_d1(u) * (2.0 / self._ds) * r
        # Hessian eigenvalues: a (tangential) and a + b r^2 (radial).
        a = -_smoothstep_d1(u) * (2.0 / self._ds)
        b = -_smoothstep_d2(u) * (4.0 / self._ds**2)
        hess_op = np.maximum(np.abs(a), np.abs(a + b * s))
        self.sup_value = 1.0
        self.sup_gradient = float(np.max(grad_mag))
        self.sup_hessian = float(np.max(hess_op))

    @property
    def lip(self):
        return self.sup_gradient

    @property
    def c2_norm(self):
        return self.sup_value + self.sup_gradient + self.sup_hessian


class GammaHypothesisError(ValueError):
    """The mesh is too coarse for the kernel scale: 2h > gamma * eps."""


def gamma_feasible(c0, lambda_max, beta, lip_xi, d, floor=1e-6):
    """Largest mesh-to-kernel ratio allowed by the stability estimates.

    Takes the minimum of the structural caps: the regularity cap
    1 / (8 (1 + c0^(2/d))), the curvature cap 1 / lambda_max, and two
    kernel-floor caps keeping the discrete regularized mass bounded away
    from zero (the second with a factor-of-two safety margin so the
    resulting lower bound stays at least beta / 2).
    """
    c0 = float(c0)
    if c0 <= 1.0:
        raise ValueError("c0 must exceed 1")
    lambda_max = float(lambda_max)
    beta = float(beta)
    lip_xi = float(lip_xi)
    if min(lambda_max, beta, lip_xi) <= 0:
        raise ValueError("lambda_max, beta, and lip_xi must be positive")
    caps = (
        1.0 / (8.0 * (1.0 + c0 ** (2.0 / d))),
        1.0 / lambda_max,
        beta / (2.0 ** (3 * d) * c0**2 * (lip_xi + 1.0)),
        0.5 * beta / (2.0 ** (3 * d + 1) * c0**2 * lip_xi),
    )
    value = min(caps)
    if value < floor:
        raise ValueError(
            f"feasible mesh-kernel ratio {value:.3e} fell below {floor:g}"
        )
    return value


class ConstantsLedger:
    """Explicit constants entering the residual bounds.

    Inputs are geometric and kernel quantities; derived coefficients are
    evaluated once at construction. ``combined_rate_coeff`` multiplies
    (t2 - t1)(eps + h / eps^3) in the main estimate and
    ``weak_bound_coeff`` multiplies (eps + h / eps^3) in the standalone
    form.
    """

    INPUT_FIELDS = (
        "d",
        "ahlfors_constant",
        "curvature_consistency_constant",
        "tangent_lipschitz_constant",
        "kernel_floor",
        "mesh_kernel_ratio",
        "sup_rho_deriv",
        "sup_rho_second",
        "sup_xi_deriv",
        "initial_mass",
        "horizon",
    )
    DERIVED_FIELDS = (
        "exact_flow_term_coeff",
        "measure_transfer_coeff",
        "h_eps_sup_coeff",
        "h_eps_lip_coeff",
        "mass_lower_coeff",
        "representation_switch_coeff",
        "discrete_mass_lower_coeff",
        "h_eps_stability_coeff",
        "combined_rate_coeff",
        "weak_bound_coeff",
    )

    def __init__(self, d, ahlfors_constant, curvature_consistency_constant,
                 tangent_lipschitz_constant, kernel_floor, mesh_kernel_ratio,
                 sup_rho_deriv, sup_rho_second, sup_xi_deriv, initial_mass,
                 horizon):
        self.d = int(d)
        self.ahlfors_constant = float(ahlfors_constant)
        self.curvature_consistency_constant = float(
            curvature_consistency_constant
        )
        self.tangent_lipschitz_constant = float(tangent_lipschitz_constant)
        self.kernel_floor = float(kernel_floor)
        self.mesh_kernel_ratio = float(mesh_kernel_ratio)
        self.sup_rho_deriv = float(sup_rho_deriv)
        self.sup_rho_second = float(sup_rho_second)
        self.sup_xi_deriv = float(sup_xi_deriv)
        self.initial_mass = float(initial_mass)
        self.horizon = float(horizon)
        for name in self.INPUT_FIELDS[1:]:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        self._derive()

    def _derive(self):
        d = self.d
        c0 = self.ahlfors_constant
        c1 = self.curvature_consistency_constant
        c2 = self.tangent_lipschitz_constant
        beta = self.kernel_floor
        gamma = self.mesh_kernel_ratio
        mass0 = self.initial_mass

        self.exact_flow_term_coeff = c1 * mass0 * (2.0 + c1)
        self.h_eps_sup_coeff = (
            c0**2 * 2.0 ** (3 * d + 1) * self.sup_rho_deriv / beta
        )
        self.h_eps_lip_coeff = self.h_eps_sup_coeff * (
            1.0 + c0**2 * 2.0 ** (3 * d + 2) * self.sup_xi_deriv / beta
        )
        self.measure_transfer_coeff = (
            2.0 / gamma * (self.h_eps_sup_coeff**2 + self.h_eps_sup_coeff)
            + 2.0 * self.h_eps_sup_coeff * self.h_eps_lip_coeff
            + self.h_eps_lip_coeff
        ) * mass0
        self.mass_lower_coeff = beta / c0 * 2.0 ** (-2 * d - 1)
        self.discrete_mass_lower_coeff = (
            beta - gamma * c0**2 * 2.0 ** (3 * d + 1) * self.sup_xi_deriv
        )
        if self.discrete_mass_lower_coeff <= 0:
            raise ValueError(
                "mesh_kernel_ratio too large: the discrete regularized "
                "mass lower bound is not positive"
            )
        self.h_eps_stability_coeff = (
            self.sup_rho_deriv * self.sup_xi_deriv * 2.0 ** (2 * d) * c0**2
            / (self.mass_lower_coeff * self.discrete_mass_lower_coeff)
            + 2.0**d * self.sup_rho_second * (1.0 + 2.0 * c2) * c0
            / self.discrete_mass_lower_coeff
        )
        self.representation_switch_coeff = (
            self.h_eps_stability_coeff * mass0
            * (2.0 * self.h_eps_sup_coeff + 1.0)
        )
        self.combined_rate_coeff = (
            self.exact_flow_term_coeff
            + self.measure_transfer_coeff
            + self.representation_switch_coeff
        )
        self.weak_bound_coeff = (
            mass0 * (2.0 + c1) + self.combined_rate_coeff * self.horizon
        )

    def as_dict(self):
        return {
            name: getattr(self, name)
            for name in self.INPUT_FIELDS + self.DERIVED_FIELDS
        }


def constants_ledger(pair, d, ahlfors_constant,
                     curvature_consistency_constant,
                     tangent_lipschitz_constant, mesh_kernel_ratio,
                     initial_mass, horizon, kernel_floor=None):
    """Build a :class:`ConstantsLedger` from a kernel pair and measurements.

    Kernel sup norms come from the pair; the kernel floor defaults to the
    pair's minimum mass-profile value over the radii the regularity
    constant guarantees are populated.
    """
    if kernel_floor is None:
        kernel_floor = pair.beta(ahlfors_constant)
    return ConstantsLedger(
        d=d,
        ahlfors_constant=ahlfors_constant,
        curvature_consistency_constant=curvature_consistency_constant,
        tangent_lipschitz_constant=tangent_lipschitz_constant,
        kernel_floor=kernel_floor,
        mesh_kernel_ratio=mesh_kernel_ratio,
        sup_rho_deriv=pair.sup_rho_deriv,
        sup_rho_second=pair.sup_rho_second,
        sup_xi_deriv=pair.sup_xi_deriv,
        initial_mass=initial_mass,
        horizon=horizon,
    )


def measure_curvature_consistency(shape, resolution, pair, epsilons,
                                  probe_count=32):
    """Empirical curvature consistency constant and its per-scale table.

    Returns (estimate, rows) where rows are (eps, max error) pairs over
    probe points on the shape and the estimate is max(error / eps).
    """
    v = SampledManifoldVarifold.from_shape(shape, resolution)
    probes = shape.sample(probe_count).positions
    h_true = shape.mean_curvature(probes)
    rows = []
    for eps in epsilons:
        query = CurvatureQuery(pair, eps)
        field = curvature_field(v, query, probes)
        if field.n_failures:
            raise RuntimeError(
                f"curvature evaluation failed at {field.n_failures} probes"
            )
        err = float(np.max(np.linalg.norm(field.values - h_true, axis=1)))
        rows.append((float(eps), err))
    estimate = max(err / eps for eps, err in rows)
    return estimate, rows


def measure_tangent_lipschitz(shape, resolution, max_separation=0.1):
    """Largest projector distance to point distance ratio at short range.

    Candidate pairs come from a cell list of the sample searched against
    itself at a radius a hair above ``max_separation``; the square roots of
    the squared distances the search yields are then held to
    ``0 < dist <= max_separation`` exactly, so the widened search radius
    does not decide which pairs count. Pairs are found in runs of at most
    ``_PAIR_BLOCK`` candidates to bound memory.
    """
    sample = shape.sample(resolution)
    pts = sample.positions
    proj = sample.projectors
    cells = CellList(pts, max_separation * (1.0 + 1e-9))
    best = 0.0
    for run, indptr, pos, dist_sq in cells.runs(pts, _PAIR_BLOCK):
        i, j = np.repeat(run, np.diff(indptr)), np.take(cells.order, pos)
        keep = i < j
        i, j, dist = i[keep], j[keep], np.sqrt(dist_sq[keep])
        pdiff = np.take(proj, i, axis=0) - np.take(proj, j, axis=0)
        pdist = np.sqrt(np.einsum("pij,pij->p", pdiff, pdiff))
        mask = (dist > 0) & (dist <= max_separation)
        if np.any(mask):
            best = max(best, float(np.max(pdist[mask] / dist[mask])))
    return best


def _time_weights(times, rule):
    dt = times[1] - times[0]
    count = len(times)
    if rule == "trapezoid":
        w = np.full(count, dt)
        w[0] = w[-1] = 0.5 * dt
        return w
    if rule == "simpson":
        if (count - 1) % 2 != 0:
            raise ValueError(
                "the simpson rule needs an even number of time panels"
            )
        w = np.empty(count)
        w[0] = w[-1] = dt / 3.0
        w[1:-1:2] = 4.0 * dt / 3.0
        w[2:-1:2] = 2.0 * dt / 3.0
        return w
    raise ValueError(f"unknown time rule {rule!r}")


class ResidualReport:
    """All terms of the assembled space-time residual.

    ``residual`` equals (final mass term - initial mass term) minus the
    time-quadrature sum of the flux integrand, recomputable from the
    stored arrays via :meth:`recompute`; reversing the time orientation
    negates it exactly.

    Curvature failures are recorded per snapshot: ``failed_per_snapshot``
    counts the nodes whose regularized mass fell below the floor (their
    curvature enters the terms as zero) and ``min_den_over_floor`` holds the
    smallest regularized mass over the floor, +inf where no node was
    evaluated. ``failed_nodes`` is their total.
    """

    def __init__(self, times, mass_phi, curvature_terms, transport_terms,
                 time_weights, time_rule, epsilon=None, h=None, edge=None,
                 gamma=None, hypothesis_satisfied=None,
                 failed_per_snapshot=None, min_den_over_floor=None,
                 bounds=None):
        self.times = np.asarray(times, dtype=float)
        self.mass_phi = np.asarray(mass_phi, dtype=float)
        self.curvature_terms = np.asarray(curvature_terms, dtype=float)
        self.transport_terms = np.asarray(transport_terms, dtype=float)
        self.time_weights = np.asarray(time_weights, dtype=float)
        self.time_rule = time_rule
        self.epsilon = epsilon
        self.h = h
        self.edge = edge
        self.gamma = gamma
        self.hypothesis_satisfied = hypothesis_satisfied
        count = len(self.times)
        self.failed_per_snapshot = (
            np.zeros(count, dtype=np.int64) if failed_per_snapshot is None
            else np.asarray(failed_per_snapshot, dtype=np.int64)
        )
        self.min_den_over_floor = (
            np.full(count, np.inf) if min_den_over_floor is None
            else np.asarray(min_den_over_floor, dtype=float)
        )
        self.failed_nodes = int(np.sum(self.failed_per_snapshot))
        self.bounds = dict(bounds) if bounds else {}
        self.mass_difference = float(self.mass_phi[-1] - self.mass_phi[0])
        self.flux_integral = float(
            np.sum(self.time_weights
                   * (-self.curvature_terms + self.transport_terms))
        )
        self.residual = self.mass_difference - self.flux_integral

    def recompute(self, orientation=1):
        """Re-derive the residual from the stored terms.

        ``orientation=-1`` integrates the identity from the final time back
        to the initial one, which negates the residual exactly.
        """
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        mass_diff = self.mass_phi[-1] - self.mass_phi[0]
        flux = np.sum(
            self.time_weights
            * (-self.curvature_terms + self.transport_terms)
        )
        return orientation * (mass_diff - flux)

    @property
    def abs_residual(self):
        return abs(self.residual)

    def as_dict(self):
        out = {
            "t_start": float(self.times[0]),
            "t_end": float(self.times[-1]),
            "time_rule": self.time_rule,
            "residual": self.residual,
            "abs_residual": self.abs_residual,
            "mass_difference": self.mass_difference,
            "flux_integral": self.flux_integral,
            "failed_nodes": self.failed_nodes,
        }
        for name in ("epsilon", "h", "edge", "gamma"):
            value = getattr(self, name)
            if value is not None:
                out[name] = float(value)
        if self.hypothesis_satisfied is not None:
            out["hypothesis_satisfied"] = bool(self.hypothesis_satisfied)
        out.update(self.bounds)
        return out


def _thread_count(threads):
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("VARMCF_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"VARMCF_THREADS must be an integer, got {env!r}"
            ) from None
    return 1


def _atom_terms(masses, phi_vals, grad_vals, h_vals):
    """Mass, curvature, and transport integrals as sums over atoms."""
    h_sq = np.einsum("ki,ki->k", h_vals, h_vals)
    return (
        float(np.sum(masses * phi_vals)),
        float(np.sum(masses * phi_vals * h_sq)),
        float(np.sum(masses * np.einsum("ki,ki->k", grad_vals, h_vals))),
    )


def _snapshot_terms(volumetric, query, phi):
    """Mass, curvature, and transport integrals of one snapshot, with its
    failed-node count and smallest denominator over the floor."""
    pts, per_node = volumetric.mass_atoms()
    phi_vals = phi(pts)
    grad_vals = phi.gradient(pts)
    active = (phi_vals != 0.0) | np.any(grad_vals != 0.0, axis=1)
    h_vals = np.zeros_like(grad_vals)
    failed = 0
    margin = math.inf
    if np.any(active):
        field = curvature_field(volumetric, query, pts[active])
        failed = field.n_failures
        margin = float(np.min(field.denominators)) / query.floor
        filled = field.values.copy()
        filled[~field.ok] = 0.0
        h_vals[active] = filled
    terms = _atom_terms(per_node, phi_vals, grad_vals, h_vals)
    return (*terms, failed, margin)


def brakke_residual(trajectory, edge, pair, epsilon, phi,
                    time_rule="simpson", subdivisions=2, gamma=None,
                    enforce_gamma=True, tau=1e-14, ledger=None,
                    threads=None):
    """Residual of the weak flow identity along a discretized trajectory.

    Each snapshot sample is binned on a fixed mesh of the given cell edge;
    the regularized mean curvature of the resulting cell varifold is
    integrated against the test function with the chosen time rule. When
    ``gamma`` is given, the mesh hypothesis 2 h <= gamma * eps is checked:
    violations raise :class:`GammaHypothesisError` if ``enforce_gamma``,
    otherwise they are recorded on the report. Passing a constants ledger
    attaches the main and standalone residual bounds.
    """
    lo, hi = trajectory.bounding_box()
    mesh = Mesh(lo, hi, edge)
    query = CurvatureQuery(pair, epsilon, tau=tau)
    hypothesis = None
    if gamma is not None:
        hypothesis = bool(2.0 * mesh.h <= gamma * epsilon)
        if enforce_gamma and not hypothesis:
            raise GammaHypothesisError(
                f"2h = {2.0 * mesh.h:.6g} exceeds gamma * eps = "
                f"{gamma * epsilon:.6g}; refine the mesh or raise eps"
            )
    weights = _time_weights(trajectory.times, time_rule)

    def one(i):
        vol = discretize(
            trajectory.sample(i), mesh, subdivisions=subdivisions
        )
        return _snapshot_terms(vol, query, phi)

    count = _thread_count(threads)
    indices = range(len(trajectory.times))
    if count > 1:
        # imported on use: the default serial path never needs it, and
        # loading it (logging included) is a visible part of the import
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=count) as pool:
            results = list(pool.map(one, indices))
    else:
        results = [one(i) for i in indices]
    (mass_phi, curvature_terms, transport_terms,
     failures, margins) = zip(*results)

    bounds = {}
    if ledger is not None:
        rate = epsilon + mesh.h / epsilon**3
        span = float(trajectory.times[-1] - trajectory.times[0])
        mass_drop = float(trajectory.masses[0] - trajectory.masses[-1])
        distance_cap = mesh.h * float(trajectory.masses[0])
        bounds["main_bound"] = (
            2.0 * phi.lip * distance_cap
            + phi.sup_value
            * ledger.curvature_consistency_constant * epsilon * mass_drop
            + phi.c2_norm * ledger.combined_rate_coeff * span * rate
        )
        bounds["weak_bound"] = phi.c2_norm * ledger.weak_bound_coeff * rate

    return ResidualReport(
        trajectory.times, mass_phi, curvature_terms, transport_terms,
        weights, time_rule, epsilon=epsilon, h=mesh.h, edge=edge,
        gamma=gamma, hypothesis_satisfied=hypothesis,
        failed_per_snapshot=failures, min_den_over_floor=margins,
        bounds=bounds,
    )


def exact_flow_residual(trajectory, phi, time_rule="simpson"):
    """Residual control: exact curvature on the sampled measure, no mesh.

    Isolates the time-quadrature error of the identity; for an exact
    shrinker this is the only error source, so the value shrinks at the
    order of the chosen rule.
    """
    weights = _time_weights(trajectory.times, time_rule)
    terms = []
    for i in range(len(trajectory.times)):
        pts, _, w = trajectory.sample(i).atoms()
        terms.append(_atom_terms(
            w, phi(pts), phi.gradient(pts),
            trajectory.shape(i).mean_curvature(pts),
        ))
    return ResidualReport(trajectory.times, *zip(*terms), weights, time_rule)

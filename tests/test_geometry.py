"""Shape geometry: projectors, curvature oracles, quadrature sampling."""

import numpy as np
import pytest
from scipy.special import ellipe

from varmcf.geometry import (
    AngenentOval,
    Circle,
    Ellipse,
    Sphere,
    Torus,
    make_shape,
)

# Every shape answers the same queries; these cover each class once.
SHAPES = [Circle(1.0), Ellipse(1.5, 1.0), AngenentOval(-2.0), Sphere(1.0),
          Torus(2.0, 0.5)]
SHAPE_IDS = ["circle", "ellipse", "oval", "sphere", "torus"]


def test_circle_mean_curvature_value():
    circle = Circle(radius=1.0)
    h = circle.mean_curvature(np.array([1.0, 0.0]))
    assert np.max(np.abs(h - np.array([-1.0, 0.0]))) < 1e-12


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_sphere_mean_curvature_magnitude(radius):
    sphere = Sphere(radius=radius)
    sample = sphere.sample(16)
    h = sphere.mean_curvature(sample.positions)
    mags = np.linalg.norm(h, axis=1)
    assert np.max(np.abs(mags - 2.0 / radius)) / (2.0 / radius) < 1e-12
    # Points toward the center.
    rel = sample.positions - sphere.center
    assert np.all(np.sum(h * rel, axis=1) < 0)


def test_off_shape_point_rejected():
    # a sample point moved 1e-6 along its normal leaves every shape
    for shape in SHAPES:
        y = shape.sample(16).positions[5]
        h = shape.mean_curvature(y)
        with pytest.raises(ValueError, match="not on the shape"):
            shape.mean_curvature(y + 1e-6 * h / np.linalg.norm(h))
        with pytest.raises(ValueError, match="expected a point"):
            shape.mean_curvature(np.zeros(shape.n + 1))
        with pytest.raises(ValueError, match="expected points shaped"):
            shape.mean_curvature(np.zeros((2, shape.n - 1)))


@pytest.mark.parametrize(
    "make, n",
    [
        (lambda c: Circle(1.0, c), 2),
        (lambda c: Ellipse(1.0, 2.0, c), 2),
        (lambda c: Sphere(1.0, c), 3),
        (lambda c: Torus(center=c), 3),
    ],
    ids=["circle", "ellipse", "sphere", "torus"],
)
def test_wrong_length_center_rejected(make, n):
    message = rf"center must be a point in R\^{n}"
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError, match=message):
            make((0.0,) * length)


def test_resolution_floor():
    with pytest.raises(ValueError, match="at least 8"):
        Circle().sample(4)


def test_circle_sample_total_measure_exact():
    circle = Circle(radius=1.3, center=(0.2, -0.4))
    for res in (8, 64, 512):
        s = circle.sample(res)
        assert abs(s.total_weight() - circle.total_measure()) < 1e-12


def test_sphere_sample_total_measure():
    sphere = Sphere(radius=1.0)
    s = sphere.sample(128)
    rel = abs(s.total_weight() - 4.0 * np.pi) / (4.0 * np.pi)
    assert rel < 1e-6


def test_torus_sample_total_measure():
    torus = Torus(2.0, 0.5)
    s = torus.sample(64)
    exact = 4.0 * np.pi**2 * 2.0 * 0.5
    assert abs(s.total_weight() - exact) / exact < 1e-12


def test_ellipse_total_measure_matches_quadrature():
    ellipse = Ellipse(1.5, 1.0)
    exact = ellipse.total_measure()
    assert abs(exact - 4.0 * 1.5 * ellipe(1.0 - (1.0 / 1.5) ** 2)) < 1e-14
    errs = []
    for res in (8, 16, 32, 64):
        errs.append(abs(ellipse.sample(res).total_weight() - exact))
    floor = 1e-13 * exact
    for coarse, fine in zip(errs, errs[1:]):
        if coarse < floor:
            break
        assert fine <= coarse / 2.0


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_sample_projector_invariants(shape):
    s = shape.sample(16)
    p = s.projectors
    assert np.max(np.abs(p - np.swapaxes(p, 1, 2))) < 1e-12
    assert np.max(np.abs(np.einsum("kij,kjl->kil", p, p) - p)) < 1e-10
    traces = np.einsum("kii->k", p)
    assert np.max(np.abs(traces - shape.d)) < 1e-10


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_tangent_kills_normal(shape):
    s = shape.sample(12)
    h = shape.mean_curvature(s.positions)
    # H is normal, so tangent projectors must annihilate it.
    proj_h = np.einsum("kij,kj->ki", s.projectors, h)
    assert np.max(np.abs(proj_h)) < 1e-10
    # one point gives its row of the batch, bitwise
    for k in (0, 5, len(s) - 1):
        assert np.array_equal(shape.mean_curvature(s.positions[k]), h[k])


def test_make_shape_dispatch():
    c = make_shape("circle", radius=2.0)
    assert isinstance(c, Circle) and c.radius == 2.0
    with pytest.raises(ValueError, match="unknown shape"):
        make_shape("helicoid")


# The area-variation oracle. The first variation of area under a velocity
# field X equals -int H . X over a closed shape, so a centered difference of
# the deformed area must match the curvature quadrature.

def _field(points):
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    return np.stack([np.sin(y), np.cos(z), np.sin(x)], axis=-1)


def _field_jacobian(points):
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    j = np.zeros(points.shape[:-1] + (3, 3))
    j[..., 0, 1] = np.cos(y)
    j[..., 1, 2] = -np.sin(z)
    j[..., 2, 0] = np.cos(x)
    return j


def _torus_area_deformed(torus, t, res=256):
    theta = 2.0 * np.pi * np.arange(res) / res
    psi = 2.0 * np.pi * np.arange(res) / res
    tg, pg = np.meshgrid(theta, psi, indexing="ij")
    R, a = torus.major_radius, torus.minor_radius
    ring = R + a * np.cos(pg)
    pos = np.stack(
        [ring * np.cos(tg), ring * np.sin(tg), a * np.sin(pg)], axis=-1
    )
    d_theta = np.stack(
        [-ring * np.sin(tg), ring * np.cos(tg), np.zeros_like(tg)], axis=-1
    )
    d_psi = np.stack(
        [-a * np.sin(pg) * np.cos(tg), -a * np.sin(pg) * np.sin(tg),
         a * np.cos(pg)],
        axis=-1,
    )
    jac = _field_jacobian(pos)
    f_theta = d_theta + t * np.einsum("...ij,...j->...i", jac, d_theta)
    f_psi = d_psi + t * np.einsum("...ij,...j->...i", jac, d_psi)
    cross = np.cross(f_theta, f_psi)
    element = np.linalg.norm(cross, axis=-1)
    return element.sum() * (2.0 * np.pi / res) ** 2


def test_torus_curvature_matches_area_variation():
    torus = Torus(2.0, 0.5)
    t0 = 1e-4
    fd = (_torus_area_deformed(torus, t0) - _torus_area_deformed(torus, -t0))
    fd /= 2.0 * t0
    s = torus.sample(256)
    h = torus.mean_curvature(s.positions)
    rhs = -np.sum(s.weights * np.sum(h * _field(s.positions), axis=1))
    assert abs(fd - rhs) < 1e-6


def test_torus_outer_equator_curvature_value():
    # At the outer equator both principal curvatures bend inward.
    torus = Torus(2.0, 0.5)
    y = np.array([2.5, 0.0, 0.0])
    h = torus.mean_curvature(y)
    expected = -(1.0 / 0.5 + 1.0 / 2.5) * np.array([1.0, 0.0, 0.0])
    assert np.max(np.abs(h - expected)) < 1e-12


def _circle_length_deformed(circle, t, res=512):
    theta = 2.0 * np.pi * np.arange(res) / res
    r = circle.radius
    pos3 = np.stack(
        [r * np.cos(theta), r * np.sin(theta), np.zeros(res)], axis=-1
    )
    d_theta = np.stack(
        [-r * np.sin(theta), r * np.cos(theta), np.zeros(res)], axis=-1
    )
    jac = _field_jacobian(pos3)[:, :2, :2]
    f_theta = d_theta[:, :2] + t * np.einsum(
        "kij,kj->ki", jac, d_theta[:, :2]
    )
    return np.linalg.norm(f_theta, axis=1).sum() * (2.0 * np.pi / res)


def test_circle_curvature_matches_length_variation():
    circle = Circle(1.0)
    t0 = 1e-4
    fd = (_circle_length_deformed(circle, t0)
          - _circle_length_deformed(circle, -t0)) / (2.0 * t0)
    s = circle.sample(512)
    h = circle.mean_curvature(s.positions)
    field2 = _field(np.concatenate(
        [s.positions, np.zeros((len(s), 1))], axis=1
    ))[:, :2]
    rhs = -np.sum(s.weights * np.sum(h * field2, axis=1))
    assert abs(fd - rhs) < 1e-6


@pytest.mark.parametrize("t", [-2.0, -0.5])
def test_angenent_oval_geometry(t):
    oval = AngenentOval(t)
    a = np.exp(t)
    sample = oval.sample(256)
    x, y = sample.positions.T
    assert np.max(np.abs(np.cos(x) - a * np.cosh(y))) <= 1e-12
    # the outward normal is the normalized gradient of a cosh y - cos x
    outward = np.stack([np.sin(x), a * np.sinh(y)], axis=1)
    outward /= np.linalg.norm(outward, axis=1)[:, None]
    h = oval.mean_curvature(sample.positions)
    kappa = np.linalg.norm(h, axis=1)
    assert np.max(np.abs(-h / kappa[:, None] - outward)) <= 1e-12
    tangent_plane = np.eye(2) - outward[:, :, None] * outward[:, None, :]
    assert np.max(np.abs(sample.projectors - tangent_plane)) <= 1e-12
    # the sample reaches the box at theta = 0 and pi / 2
    lo, hi = oval.bounding_box(margin=0.1)
    np.testing.assert_array_equal(lo, -hi)
    np.testing.assert_allclose(
        np.max(np.abs(sample.positions), axis=0), hi - 0.1, rtol=1e-15
    )


@pytest.mark.parametrize("t", [-2.0, -0.5])
def test_angenent_oval_curvature_matches_finite_differences(t):
    oval = AngenentOval(t)
    a, m = np.exp(t), -np.expm1(2.0 * t)

    def point(s):  # any parametrization of the curve serves
        return np.stack([np.arcsin(np.sqrt(m) * np.cos(s)),
                         np.arcsinh(np.sqrt(m) * np.sin(s) / a)], axis=1)

    s = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    step = 1e-4
    ahead, here, behind = point(s + step), point(s), point(s - step)
    d1 = (ahead - behind) / (2.0 * step)
    d2 = (ahead - 2.0 * here + behind) / step**2
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    kappa = np.abs(cross) / np.linalg.norm(d1, axis=1) ** 3
    h = oval.mean_curvature(here)
    np.testing.assert_allclose(np.linalg.norm(h, axis=1), kappa, atol=1e-4)
    with pytest.raises(ValueError, match="not on the shape"):
        oval.mean_curvature(here[0] * (1.0 + 1e-6))


@pytest.mark.parametrize("t", [-2.0, -0.5])
def test_angenent_oval_measure_and_area(t):
    oval = AngenentOval(t)
    for resolution in (256, 512):
        weight = oval.sample(resolution).total_weight()
        assert abs(weight - oval.total_measure()) <= 1e-10
    # shoelace area of a fine polygon; the exact area is -2 pi t
    p = oval.sample(65536).positions
    q = np.roll(p, -1, axis=0)
    area = 0.5 * np.sum(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0])
    assert abs(area + 2.0 * np.pi * t) <= 1e-6


def test_angenent_oval_needs_negative_time():
    with pytest.raises(ValueError, match="t < 0"):
        AngenentOval(0.0)

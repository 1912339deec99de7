import numpy as np
import pytest

from varmcf.brakke import RadialBump, brakke_residual, exact_flow_residual
from varmcf.flow import (
    AngenentOvalFlow,
    FlowTrajectory,
    ShrinkingCircle,
    ShrinkingSphere,
)
from varmcf.geometry import AngenentOval, Sphere
from varmcf.kernels import default_kernel_pair


def test_circle_radius_law():
    flow = ShrinkingCircle(1.0)
    assert flow.extinction_time == pytest.approx(0.5)
    assert flow.radius_at(0.375) == pytest.approx(0.5, rel=1e-15)
    assert flow.radius_at(0.0) == 1.0


def test_sphere_radius_law():
    flow = ShrinkingSphere(1.0)
    assert flow.extinction_time == pytest.approx(0.25)
    assert flow.radius_at(0.1875) == pytest.approx(0.5, rel=1e-15)


def test_extinct_time_rejected():
    flow = ShrinkingCircle(1.0)
    with pytest.raises(ValueError, match="extinct"):
        flow.shape_at(0.5)
    with pytest.raises(ValueError, match="extinct"):
        FlowTrajectory(flow, 0.0, 0.6, 4, 64)


def test_radius_at_rejects_nan():
    # NaN fails both the sign and the extinction test as comparisons
    with pytest.raises(ValueError, match="nonnegative"):
        ShrinkingCircle(1.0).radius_at(np.nan)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ShrinkingCircle(np.nan), "radius must be positive and finite"),
        (lambda: ShrinkingSphere(np.inf), "radius must be positive and finite"),
        (lambda: ShrinkingCircle(1.0, (np.nan, 0.0)), "center must be finite"),
        (lambda: ShrinkingSphere(1.0, (0.0, 0.0)), r"point in R\^3"),
        (lambda: AngenentOvalFlow(-np.inf), "negative and finite"),
        (lambda: AngenentOvalFlow(np.nan), "negative and finite"),
    ],
    ids=["circle-radius", "sphere-radius", "circle-center", "sphere-center",
         "oval-inf", "oval-nan"],
)
def test_non_finite_flow_parameters_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_trajectory_masses_track_radius():
    flow = ShrinkingCircle(1.0)
    traj = flow.trajectory(0.0, 0.125, panels=8, resolution=128)
    assert len(traj) == 9
    for i, t in enumerate(traj.times):
        assert traj.masses[i] == pytest.approx(
            2.0 * np.pi * flow.radius_at(t), rel=1e-14
        )
    assert np.all(np.diff(traj.masses) < 0)


def test_trajectory_samples_rebuilt_and_consistent():
    # no sample is kept: each call builds a new one, bitwise the same
    traj = ShrinkingCircle(1.0).trajectory(0.0, 0.125, 4, 256)
    s = traj.sample(2)
    again = traj.sample(2)
    assert again is not s
    for name in ("positions", "projectors", "weights"):
        assert _same_bits(getattr(again, name), getattr(s, name))
    assert float(np.sum(s.weights)) == pytest.approx(
        traj.masses[2], rel=1e-12
    )


# (flow, end time, resolution) of one small trajectory per exact flow
GRID_FLOWS = [
    (ShrinkingCircle(0.9, (0.01, -0.02)), 0.125, 512),
    (ShrinkingSphere(1.0), 0.1, 16),
    (AngenentOvalFlow(-2.0), 0.5, 256),
]
GRID_IDS = ["circle", "sphere", "oval"]


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("flow, t_end, resolution", GRID_FLOWS, ids=GRID_IDS)
def test_trajectory_samples_equal_shape_samples(flow, t_end, resolution):
    traj = flow.trajectory(0.0, t_end, 4, resolution)
    for i in range(len(traj)):
        shared = traj.sample(i)
        alone = traj.shape(i).sample(resolution)
        for name in ("positions", "projectors", "weights"):
            assert _same_bits(getattr(shared, name), getattr(alone, name))


@pytest.mark.parametrize("flow, t_end, resolution", GRID_FLOWS, ids=GRID_IDS)
def test_trajectory_builds_one_read_only_grid(monkeypatch, flow, t_end,
                                              resolution):
    traj = flow.trajectory(0.0, t_end, 4, resolution)
    cls = type(traj.shape(0))
    build = cls._grid
    built = []

    def spy(resolution):
        built.append(resolution)
        return build(resolution)

    monkeypatch.setattr(cls, "_grid", staticmethod(spy))
    samples = [traj.sample(i) for i in range(len(traj))]
    assert built == [resolution]
    grid = traj._grid
    assert all(not array.flags.writeable for array in grid)
    if cls is not Sphere:
        # the projectors t t^T depend on the angle alone
        assert all(s.projectors is grid[2] for s in samples)


def test_threaded_oval_residual_matches_serial():
    # each side samples a fresh trajectory, the threaded one on a grid
    # that its snapshot threads build and share
    flow = AngenentOvalFlow(-2.0)
    pair = default_kernel_pair(2, 1)
    phi = RadialBump([0.3, 0.5], 0.2, 1.4)
    serial = brakke_residual(flow.trajectory(0.0, 0.5, 2, 2048), 0.05,
                             pair, 0.4, phi, subdivisions=1)
    threaded = brakke_residual(flow.trajectory(0.0, 0.5, 2, 2048), 0.05,
                               pair, 0.4, phi, subdivisions=1, threads=2)
    assert serial.residual == threaded.residual
    for key in ("mass_phi", "curvature_terms", "transport_terms"):
        assert np.array_equal(getattr(serial, key), getattr(threaded, key))


def test_trajectory_bounding_box_is_initial_box():
    flow = ShrinkingCircle(1.0)
    traj = flow.trajectory(0.0, 0.125, 4, 64)
    lo, hi = traj.bounding_box(margin=0.1)
    np.testing.assert_allclose(lo, [-1.1, -1.1])
    np.testing.assert_allclose(hi, [1.1, 1.1])


def _oval_points(theta, t):
    """The Angenent oval's point of outward normal angle theta at time t."""
    a, m = np.exp(t), -np.expm1(2.0 * t)
    return np.stack([np.arcsin(np.sqrt(m) * np.cos(theta)),
                     np.arcsinh(np.sqrt(m) * np.sin(theta) / a)], axis=1)


def test_oval_flow_times():
    flow = AngenentOvalFlow(-2.0)
    assert flow.extinction_time == 2.0
    assert flow.shape_at(0.5).t == -1.5
    with pytest.raises(ValueError, match="extinct"):
        flow.shape_at(2.0)
    with pytest.raises(ValueError, match="extinct"):
        flow.trajectory(0.0, 2.5, 4, 64)
    with pytest.raises(ValueError, match="negative"):
        AngenentOvalFlow(0.0)


@pytest.mark.parametrize("t", [-2.0, -0.5])
def test_oval_moves_by_its_curvature(t):
    # inward normal speed at fixed normal angle, by central differences in t
    theta = 2.0 * np.pi * np.arange(64) / 64
    dt = 1e-5
    velocity = (_oval_points(theta, t + dt) - _oval_points(theta, t - dt)) \
        / (2.0 * dt)
    normal = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    speed = -np.sum(velocity * normal, axis=1)
    kappa = np.linalg.norm(
        AngenentOval(t).mean_curvature(_oval_points(theta, t)), axis=1
    )
    np.testing.assert_allclose(speed, kappa, rtol=0.0, atol=1e-8)


def test_oval_exact_residual_simpson_rate():
    flow = AngenentOvalFlow(-2.0)
    phi = RadialBump([0.3, 0.5], 0.2, 1.4)
    panels = np.array([2, 4, 8, 16, 32])
    residuals = [
        exact_flow_residual(flow.trajectory(0.0, 0.5, p, 8192), phi)
        .abs_residual for p in panels
    ]
    slope = -np.polyfit(np.log(panels), np.log(residuals), 1)[0]
    assert slope >= 3.5, (slope, residuals)

import numpy as np
import pytest

from varmcf import flow
from varmcf.flow import (
    FlowTrajectory,
    SelfIntersectionError,
    ShrinkingCircle,
    ShrinkingSphere,
    curve_shortening_step,
    max_stable_step,
    polyline_curvature,
    polyline_length,
    polyline_to_sample,
    resample_polyline,
    run_curve_shortening,
    self_intersects,
    write_polyline_csv,
)


def _polygon(count, radius=1.0):
    theta = 2.0 * np.pi * np.arange(count) / count
    return radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)


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


def test_trajectory_masses_track_radius():
    flow = ShrinkingCircle(1.0)
    traj = flow.trajectory(0.0, 0.125, panels=8, resolution=128)
    assert len(traj) == 9
    for i, t in enumerate(traj.times):
        assert traj.exact_mass(i) == pytest.approx(
            2.0 * np.pi * flow.radius_at(t), rel=1e-14
        )
    assert np.all(np.diff(traj.masses) < 0)


def test_trajectory_samples_cached_and_consistent():
    traj = ShrinkingCircle(1.0).trajectory(0.0, 0.125, 4, 256)
    s = traj.sample(2)
    assert s is traj.sample(2)
    assert float(np.sum(s.weights)) == pytest.approx(
        traj.exact_mass(2), rel=1e-12
    )


def test_trajectory_bounding_box_is_initial_box():
    flow = ShrinkingCircle(1.0)
    traj = flow.trajectory(0.0, 0.125, 4, 64)
    lo, hi = traj.bounding_box(margin=0.1)
    np.testing.assert_allclose(lo, [-1.1, -1.1])
    np.testing.assert_allclose(hi, [1.1, 1.1])


def test_regular_polygon_curvature_is_inverse_circumradius():
    for count, radius in ((64, 1.0), (256, 2.0)):
        v = _polygon(count, radius)
        k = polyline_curvature(v)
        mags = np.linalg.norm(k, axis=1)
        np.testing.assert_allclose(mags, 1.0 / radius, rtol=1e-12)
        # points toward the center
        inward = -v / np.linalg.norm(v, axis=1)[:, None]
        np.testing.assert_allclose(k / mags[:, None], inward, atol=1e-12)


def test_polyline_sample_mass_is_perimeter():
    v = _polygon(128)
    s = polyline_to_sample(v)
    assert float(np.sum(s.weights)) == pytest.approx(
        polyline_length(v), rel=1e-12
    )
    assert s.dim == 1


def test_step_rejects_unstable_dt():
    v = _polygon(64)
    with pytest.raises(ValueError, match="stability"):
        curve_shortening_step(v, 2.0 * max_stable_step(v))


def test_curve_shortening_matches_shrinking_circle():
    v = _polygon(256)
    times, history = run_curve_shortening(v, 0.1, record_every=100)
    assert times[-1] == pytest.approx(0.1, abs=1e-12)
    radii = np.linalg.norm(history[-1], axis=1)
    assert np.mean(radii) == pytest.approx(np.sqrt(0.8), abs=1e-3)
    lengths = [polyline_length(p) for p in history]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))


def test_resample_preserves_shape():
    v = _polygon(100)
    w = resample_polyline(v, 100)
    assert w.shape == (100, 2)
    assert polyline_length(w) == pytest.approx(polyline_length(v), rel=1e-3)
    np.testing.assert_allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-3)


def test_self_intersection_detection():
    bowtie = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
    assert self_intersects(bowtie)
    assert not self_intersects(_polygon(16))


def _dense_self_intersects(vertices):
    """All segment pairs at once, as three dense m x m arrays."""
    v = np.asarray(vertices, dtype=float)
    p, q = v, np.roll(v, -1, axis=0)
    m = len(v)

    def ccw(a, b, c):
        return (
            (b[:, None, 0] - a[:, None, 0]) * (c[None, :, 1] - a[:, None, 1])
            - (b[:, None, 1] - a[:, None, 1]) * (c[None, :, 0] - a[:, None, 0])
        )

    d1 = ccw(p, q, p)
    d2 = ccw(p, q, q)
    crossing = (d1 * d2 < 0) & (d1.T * d2.T < 0)
    i = np.arange(m)
    adjacent = (np.abs(i[:, None] - i[None, :]) % (m - 1)) <= 1
    return bool(np.any(crossing & ~adjacent))


def _limacon(count):
    theta = 2.0 * np.pi * np.arange(count) / count
    r = 1.0 + 1.6 * np.cos(theta)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def _star(rng, count):
    """A simple polygon: random radii at increasing angles."""
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, count))
    r = rng.uniform(0.5, 1.0, count)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


@pytest.mark.parametrize("block", [1, 7, 50, flow._SEGMENT_BLOCK])
def test_blocked_self_intersection_matches_dense(monkeypatch, block):
    monkeypatch.setattr(flow, "_SEGMENT_BLOCK", block)
    rng = np.random.default_rng(17)
    shapes = [
        np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]]),
        _polygon(16),
        _polygon(3),
        _limacon(512),
    ]
    shapes += [rng.uniform(-1.0, 1.0, (count, 2)) for count in (4, 5, 9, 40)]
    shapes += [_star(rng, count) for count in (5, 12, 60, 300)]
    # one crossing between two far-apart segments of a simple polygon
    folded = _star(rng, 80)
    folded[[10, 50]] = folded[[50, 10]]
    shapes.append(folded)
    answers = [self_intersects(v) for v in shapes]
    assert answers == [_dense_self_intersects(v) for v in shapes]
    assert any(answers) and not all(answers)


def test_flow_raises_on_self_intersection():
    # A limaçon-like curve with an inner loop pinches under the flow.
    v = _limacon(512)
    assert self_intersects(v)
    with pytest.raises(SelfIntersectionError):
        run_curve_shortening(v, 0.2, check_every=1)


def test_polyline_csv(tmp_path):
    v = _polygon(8)
    times, history = run_curve_shortening(v, 0.005, record_every=1000)
    path = tmp_path / "poly.csv"
    write_polyline_csv(times, history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,vertex,x,y"
    assert len(lines) == 1 + len(times) * 8

"""Tests of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

import scipy.optimize  # noqa: E402
import tracing  # noqa: E402
import varmcf.brakke  # noqa: E402
import varmcf.curvature  # noqa: E402
import varmcf.discretization  # noqa: E402
import varmcf.metrics  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "residual-circle": dict(samples=512, epsilon=0.5, panels=2),
    "bl-circle": dict(samples=32, edge=0.3),
    "curvature-sphere": dict(resolution=24, probes=64, epsilon=0.5),
}


def tiny(name, seed=3):
    return workloads.WORKLOADS[name](seed, **TINY[name])


@pytest.mark.parametrize("n", [2, 3])
def test_pair_count_matches_brute_force(n):
    rng = np.random.default_rng(n)
    points = rng.uniform(-1.0, 1.0, size=(200, n))
    atoms = rng.uniform(-1.0, 1.0, size=(300, n))
    # include exact duplicates and a pair exactly at the radius
    atoms[:5] = points[:5]
    atoms[5] = points[5] + np.eye(n)[0] * 0.25
    radius = 0.25
    dist = np.linalg.norm(points[:, None, :] - atoms[None, :, :], axis=2)
    assert tracing.count_pairs(points, atoms, radius) == int(
        np.sum(dist <= radius))
    assert tracing.count_pairs(points[:0], atoms, radius) == 0


def test_expanded_atoms_follow_the_subcell_rule():
    trajectory = varmcf.ShrinkingCircle(1.0).trajectory(0.0, 0.1, 1, 512)
    mesh = varmcf.Mesh(*trajectory.bounding_box(), 0.05)
    vol = varmcf.discretize(trajectory.sample(0), mesh, subdivisions=1)
    # h = 0.05 sqrt(2), eps = 0.1: s = ceil(4 h / eps) = 3
    assert len(tracing.expanded_atoms(vol, 0.1)) == len(vol) * 9
    assert len(tracing.expanded_atoms(vol, 1.0)) == len(vol) * 4
    sample = varmcf.SampledManifoldVarifold(trajectory.sample(0))
    assert len(tracing.expanded_atoms(sample, 0.1)) == len(sample)


def test_covered_merges_overlapping_children():
    assert tracing._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)],
                            0.0, 10.0) == pytest.approx(4.0)
    assert tracing._covered([(-1.0, 2.0)], 0.0, 1.0) == pytest.approx(1.0)


def _patched_attributes():
    return (varmcf.brakke.discretize, varmcf.brakke.curvature_field,
            varmcf.metrics.linprog)


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrappers_are_removed_after_a_traced_op(name):
    originals = _patched_attributes()
    assert originals == (varmcf.discretization.discretize,
                         varmcf.curvature.curvature_field,
                         scipy.optimize.linprog)
    wl = tiny(name)
    tracer = tracing.Tracer()
    with tracer.traced_op(0):
        out = wl.op(tracer)
    assert wl.check(out, None) == []
    assert tracer.spans
    assert _patched_attributes() == originals
    spans = len(tracer.spans)
    wl.op(tracing.NULL_TRACER)
    assert len(tracer.spans) == spans


def test_trajectory_wrapper_is_removed():
    tracer = tracing.Tracer()
    trajectory = varmcf.ShrinkingCircle(1.0).trajectory(0.0, 0.1, 1, 64)
    with tracer.traced_op(0):
        tracer.instrument_trajectory(trajectory)
        assert "sample" in vars(trajectory)
    assert "sample" not in vars(trajectory)


def test_wrappers_are_removed_when_the_op_raises():
    originals = _patched_attributes()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.traced_op(0):
            raise RuntimeError("boom")
    assert _patched_attributes() == originals


@pytest.mark.parametrize("name", sorted(TINY))
def test_counters_repeat_exactly(name):
    wl = tiny(name)
    tracer = tracing.Tracer()
    for op in (0, 1):
        with tracer.traced_op(op):
            wl.op(tracer)
    metrics, differing = tracing.layer_metrics(tracer, [0, 1])
    assert differing == []
    second = tracing.layer_metrics(tracer, [1])[0]
    for counter in tracing.EXACT_COUNTERS:
        assert metrics[counter] == second[counter]


def test_counters_of_each_layer_are_recorded():
    tracer = tracing.Tracer()
    for op, name in enumerate(sorted(TINY)):
        with tracer.traced_op(op):
            tiny(name).op(tracer)
    bl, curv, residual = (tracing.layer_metrics(tracer, [op])[0]
                          for op in range(3))
    assert bl["metrics.lp_cols"] == bl["metrics.support_atoms"] + 2
    assert bl["metrics.lp_rows"] > 0 and bl["metrics.lp_nnz"] > 0
    assert bl["curvature.calls"] == 0 and bl["kernels.evals"] == 0
    assert curv["curvature.probes"] == TINY["curvature-sphere"]["probes"]
    assert 0 < curv["curvature.pairs"] <= curv["kernels.evals"]
    assert residual["brakke.snapshots"] == 3
    assert residual["curvature.calls"] == 3
    assert residual["brakke.self_s"] <= residual["brakke.s"]
    assert residual["discretization.samples"] == 3 * 512
    assert residual["geometry.points"] == 3 * 512


def _corrupt(name, out):
    if name == "residual-circle":
        out.curvature_terms[1] *= 1.0 + 1e-9
    elif name == "bl-circle":
        out.distance += 1e-6
    else:
        out.values[0] += 1e-9
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_output_is_a_failure(name):
    wl = tiny(name)
    reference = wl.record(wl.op(tracing.NULL_TRACER))
    out = wl.op(tracing.NULL_TRACER)
    assert wl.check(out, reference) == []
    assert wl.check(_corrupt(name, out), reference) != []

    clean_op = wl.op
    wl.op = lambda tracer: _corrupt(name, clean_op(tracer))
    times, units, log = run.run_untraced(wl, reference, 0.0, lambda: 0.1)
    assert (log.attempted, log.failed) == (1, 1)
    assert (len(times), len(units)) == (1, 2)


@pytest.mark.parametrize("name", sorted(TINY))
def test_invariant_checks_catch_gross_errors(name):
    wl = tiny(name)
    out = wl.op(tracing.NULL_TRACER)
    if name == "residual-circle":
        out.mass_phi[0] += 1.0
    elif name == "bl-circle":
        out.distance = 2.0 * out.bound
    else:
        out.values[0] += 1.0
    assert wl.check(out, None) != []


def test_raising_op_is_a_failure():
    wl = tiny("bl-circle")

    def broken(tracer):
        raise ValueError("broken")

    wl.op = broken
    _, _, log = run.run_untraced(wl, None, 0.0, lambda: 0.1)
    assert (log.attempted, log.failed) == (1, 1)


def test_scaled_seconds_use_the_units_on_both_sides():
    # units 0.1, 0.3, 0.2 around two ops of 1 s each, reference unit 0.1 s
    scaled = run.scaled_seconds([1.0, 1.0], [0.1, 0.3, 0.2], 0.1)
    assert scaled == pytest.approx([0.5, 0.4])


def test_calibration_unit_is_deterministic_work():
    import calibration

    first, second = calibration.Calibration(), calibration.Calibration()
    assert first.python_part() == second.python_part()
    assert first.numpy_part() == second.numpy_part()
    assert first.sparse_part() == second.sparse_part()
    assert first.unit() > 0.0


def test_reference_is_recorded_for_the_default_seed():
    for name in workloads.WORKLOADS:
        assert workloads.load_reference(name, 0) is not None


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    tracer = tracing.Tracer()
    with tracer.traced_op(0):
        tiny("bl-circle").op(tracer)
    produced = set(tracing.layer_metrics(tracer, [0])[0]) | {
        "trace.overhead_s"}
    declared = {m["name"] for m in spec["per_layer"]}
    assert produced == declared
    assert declared == set(layers["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} | {"fail_ratio"} == set(
        layers["end_to_end"])

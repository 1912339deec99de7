"""The summary arithmetic of tools/bench_pairs.py on hand-made runs, and
its checkout labels."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [10.0, 12.0, 11.0, 13.0, 10.0, 12.0, 11.0, 13.0, 10.0, 12.0]


def test_side_summary_is_linear_percentiles():
    summary = bench_pairs.side_summary([4.0, 1.0, 3.0, 2.0])
    # linear interpolation between order statistics 1, 2, 3, 4
    assert summary == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                       "runs": [4.0, 1.0, 3.0, 2.0]}


def test_compare_counts_pairs_and_relative_medians():
    change = [p - 1.0 for p in PARENT]
    change[4] = 10.5  # the one pair the change reads higher
    result = bench_pairs.compare(PARENT, change)
    assert result["change_lower_in_pairs"] == 9
    assert result["parent"]["median"] == 11.5
    assert result["parent"]["q1"] == 10.25 and result["parent"]["q3"] == 12.0
    assert result["parent_iqr"] == 1.75
    assert result["change"]["median"] == 10.75
    assert result["median_change_relative"] == round(-0.75 / 11.5, 4)
    assert not result["every_change_run_below_every_parent_run"]
    assert bench_pairs.compare([2.0, 3.0], [1.0, 1.5])[
        "every_change_run_below_every_parent_run"]
    with pytest.raises(ValueError, match="pair"):
        bench_pairs.compare([1.0, 2.0], [1.0])


@pytest.mark.parametrize("lower_pairs, shift, holds", [
    (10, 2.0, True),
    (9, 2.0, True),
    (8, 2.0, False),   # fewer than 9 of 10 pairs
    (10, 1.0, False),  # median gap 1.0 inside the parent's IQR of 1.75
])
def test_claim_needs_nine_of_ten_pairs_and_a_gap_beyond_the_iqr(
        lower_pairs, shift, holds):
    change = [p - shift for p in PARENT]
    for i in range(lower_pairs, 10):
        change[i] = PARENT[i] + 0.5
    verdict = bench_pairs.claim_verdict(bench_pairs.compare(PARENT, change))
    assert verdict["pairs_needed"] == 9
    assert verdict["change_better_in_pairs"] == lower_pairs
    assert verdict["holds"] is holds


@pytest.mark.parametrize("factor, holds", [(1.2, True), (0.8, True),
                                           (1.3, False)])
def test_bound_allows_the_declared_fraction_worse(factor, holds):
    change = [p * factor for p in PARENT]
    comparison = bench_pairs.compare(PARENT, change)
    assert bench_pairs.bound_verdict(comparison, 0.25)["holds"] is holds


# BENCH_25.json's residual-circle setup_s parent runs: an IQR of 0.0528 s
# against a median of 0.1586 s, a third of it
SETUP_PARENT = [0.153668, 0.175645, 0.139717, 0.20686, 0.208333, 0.163453,
                0.241379, 0.146346, 0.127509, 0.146179]


@pytest.mark.parametrize("change, resolved", [
    ([v * 1.05 for v in SETUP_PARENT], False),
    ([v * 0.95 for v in SETUP_PARENT], False),
    # every change run below every parent run
    ([0.12 - 0.001 * i for i in range(10)], True),
])
def test_bound_is_unresolved_when_the_parent_spread_exceeds_it(change,
                                                               resolved):
    comparison = bench_pairs.compare(SETUP_PARENT, change)
    verdict = bench_pairs.bound_verdict(comparison, 0.25)
    assert verdict["holds"]
    assert verdict["resolved"] is resolved
    # a spread within the bound resolves it
    assert bench_pairs.bound_verdict(comparison, 0.34)["resolved"]


BENCHMARK = {"end_to_end": [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "op_scaled_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
]}


def _run(setup, op, rss, attempted=100, failed=0):
    values = {"setup_s": setup, "op_scaled_s": op, "peak_rss_mib": rss}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v} for k, v in values.items()}}


def test_summarize_applies_claims_bounds_and_fail_ratios():
    records = {"w": {
        "parent": [_run(0.2, 1.0, 80.0), _run(0.2, 1.1, 80.0)],
        # a third change run without its parent run is left out
        "change": [_run(0.2, 0.5, 90.0), _run(0.2, 0.6, 90.0, failed=1),
                   _run(9.0, 9.0, 9.0)],
    }}
    workloads, verdicts = bench_pairs.summarize(records, BENCHMARK,
                                                {("w", "op_scaled_s")})
    entry = workloads["w"]
    assert entry["pairs"] == 2
    assert entry["ops_failed"] == {"parent": 0, "change": 1}
    assert entry["all_correct"] is False
    by_metric = {v["metric"]: v for v in verdicts}
    assert by_metric["op_scaled_s"]["kind"] == "claim"
    assert by_metric["op_scaled_s"]["holds"]
    assert by_metric["setup_s"]["holds"]
    assert not by_metric["peak_rss_mib"]["holds"]  # 12.5% over a 10% bound
    assert not by_metric["fail_ratio"]["holds"]
    assert bench_pairs.unresolved(verdicts) == []


def test_unresolved_lists_the_workload_metric_pairs():
    parent = [_run(s, 1.0, 80.0) for s in SETUP_PARENT]
    change = [_run(s, 1.0, 80.0) for s in SETUP_PARENT]
    records = {"residual-circle": {"parent": parent, "change": change}}
    _, verdicts = bench_pairs.summarize(records, BENCHMARK, set())
    assert bench_pairs.unresolved(verdicts) == [
        ["residual-circle", "setup_s"]]


def test_pairs_alternate_which_side_runs_first():
    assert [bench_pairs.side_order(p)[0] for p in range(4)] == [
        "parent", "change", "parent", "change"]


def test_checkout_label_is_the_commit_marked_dirty(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "f").write_text("a")
    git("add", "f")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "f")
    head = git("rev-parse", "--short", "HEAD")
    assert bench_pairs.checkout_label(tmp_path) == head
    (tmp_path / "f").write_text("b")
    assert bench_pairs.checkout_label(tmp_path) == head + "-dirty"

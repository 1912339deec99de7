"""Alternated parent/change pairs of the repository benchmark.

Runs ``bench/run.py`` from two checkouts, a parent and a change, in pairs:
even pairs run the parent first, odd pairs the change first, and within a
pair each workload runs on both sides back to back, so that drift in the
host's speed falls on both sides alike. From the repository root:

    python3 tools/bench_pairs.py --parent ../parent --change . --seed 3 \\
        --pairs 10 --seconds 30 --claim residual-circle:op_scaled_s \\
        --out BENCH_19.json

Every workload in the change's BENCHMARK.json runs, and each side is
labelled by ``git describe --always --dirty`` of its checkout. Each run is ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` in the checkout's own directory; its values are the metrics it
prints as its last line. Medians and quartiles are ``numpy.percentile``
(linear) over the runs of one side, and ``change_lower_in_pairs`` counts
the pairs in which the change read lower. A claim holds when the change is
better in at least nine of ten pairs and the gap between the medians
exceeds the interquartile range of the parent's runs. Every other
end-to-end metric is held to its ``bound`` in the change's BENCHMARK.json:
the change's median may be worse than the parent's by at most that
fraction. The JSON is rewritten after every pair, so an interrupted run
keeps the pairs it finished. ``--trace-pairs N`` adds N alternated pairs of
``--trace 1`` runs and records their per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

# Share of the pairs in which a claimed gain must show.
CLAIM_SHARE = 0.9


def side_summary(runs):
    """Median and quartiles (numpy.percentile, linear) of one side."""
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "runs": [round(v, 6) for v in runs]}


def compare(parent_runs, change_runs):
    """Pairwise and median comparison of one metric; runs are in pair
    order, so parent_runs[i] and change_runs[i] form pair i."""
    if len(parent_runs) != len(change_runs):
        raise ValueError("each pair needs a parent and a change run")
    parent, change = side_summary(parent_runs), side_summary(change_runs)
    return {
        "parent": parent,
        "change": change,
        "change_lower_in_pairs": sum(
            c < p for p, c in zip(parent_runs, change_runs)),
        "median_change_relative": round(
            (change["median"] - parent["median"]) / parent["median"], 4),
        "parent_iqr": round(parent["q3"] - parent["q1"], 6),
        "every_change_run_below_every_parent_run":
            max(change_runs) < min(parent_runs),
    }


def claim_verdict(comparison):
    """Whether a claimed gain holds: lower in at least CLAIM_SHARE of the
    pairs, ties counting for neither side, and a median gap wider than the
    parent's interquartile range."""
    pairs = len(comparison["parent"]["runs"])
    lower = comparison["change_lower_in_pairs"]
    gap = comparison["parent"]["median"] - comparison["change"]["median"]
    needed = math.ceil(CLAIM_SHARE * pairs)
    return {
        "pairs": pairs,
        "change_better_in_pairs": lower,
        "pairs_needed": needed,
        "median_gain": round(gap, 6),
        "parent_iqr": comparison["parent_iqr"],
        "holds": lower >= needed and gap > comparison["parent_iqr"],
    }


def bound_verdict(comparison, bound):
    """Whether the change's median stays within ``bound`` (a fraction of
    the parent's median) above the parent's."""
    worse = comparison["median_change_relative"]
    return {"bound": bound, "worse_relative": worse, "holds": worse <= bound}


def summarize(records, spec, claims):
    """The per-workload comparisons and verdicts of finished runs.

    ``records[workload][side]`` lists each run's last-line JSON in pair
    order; ``spec`` is BENCHMARK.json; ``claims`` lists (workload, metric).
    """
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if any(m["better"] != "lower" for m in metrics.values()):
        raise ValueError("every end-to-end metric must be lower-better")
    workloads, verdicts = {}, []
    for name, sides in records.items():
        pairs = min(len(sides["parent"]), len(sides["change"]))
        runs = {side: sides[side][:pairs] for side in ("parent", "change")}
        entry = {
            "pairs": pairs,
            "ops_attempted": {s: sum(r["attempted"] for r in runs[s])
                              for s in runs},
            "ops_failed": {s: sum(r["failed"] for r in runs[s])
                           for s in runs},
            "all_correct": all(r["correct"] for s in runs for r in runs[s]),
            "metrics": {},
        }
        for metric, declared in metrics.items():
            values = {s: [r["metrics"][metric]["value"] for r in runs[s]]
                      for s in runs}
            comparison = compare(values["parent"], values["change"])
            entry["metrics"][metric] = comparison
            if (name, metric) in claims:
                verdict = {"kind": "claim", **claim_verdict(comparison)}
            else:
                verdict = {"kind": "bound", **bound_verdict(
                    comparison, declared["bound"])}
            verdicts.append({"workload": name, "metric": metric, **verdict})
        failed = entry["ops_failed"]
        attempted = entry["ops_attempted"]
        verdicts.append({
            "workload": name, "metric": "fail_ratio", "kind": "bound",
            "holds": failed["change"] * attempted["parent"]
            <= failed["parent"] * attempted["change"],
        })
        workloads[name] = entry
    return workloads, verdicts


def run_bench(checkout, workload, seed, seconds, trace):
    """One benchmark run in its checkout: the JSON of its last line."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def checkout_label(checkout):
    """The checkout's commit, marked ``-dirty`` if its tracked files differ."""
    done = subprocess.run(["git", "-C", str(checkout), "describe", "--always",
                           "--dirty"], capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def side_order(pair):
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC",
                        help="a claimed gain, checked by the 9-of-10 rule")
    parser.add_argument("--trace-pairs", type=int, default=0)
    parser.add_argument("--trace-seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    with open(checkouts["change"] / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    unknown = claims - {(name, m["name"]) for name in names
                        for m in spec["end_to_end"]}
    if unknown:
        raise SystemExit(f"no such workload:metric in BENCHMARK.json: "
                         f"{sorted(unknown)}")
    import scipy

    payload = {
        "parent": checkout_label(checkouts["parent"]),
        "change": checkout_label(checkouts["change"]),
        "host": (f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                 f"{platform.python_version()}, numpy {np.__version__}, "
                 f"scipy {scipy.__version__}"),
        "command": shlex.join(["python3", "tools/bench_pairs.py", *argv]),
        "final": {"seed": args.seed, "seconds": args.seconds},
    }
    records = {name: {"parent": [], "change": []} for name in names}
    for pair in range(args.pairs):
        for name in names:
            for side in side_order(pair):
                result = run_bench(checkouts[side], name, args.seed,
                                   args.seconds, 0)
                records[name][side].append(result)
                print(f"pair {pair} {name} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr,
                      flush=True)
        workloads, verdicts = summarize(records, spec, claims)
        payload["final"]["workloads"] = workloads
        payload["verdicts"] = verdicts
        payload["all_hold"] = all(v["holds"] for v in verdicts)
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    if args.trace_pairs:
        traced = {name: {"parent": [], "change": []} for name in names}
        for pair in range(args.trace_pairs):
            for name in names:
                for side in side_order(pair):
                    result = run_bench(checkouts[side], name, args.seed,
                                       args.trace_seconds, 1)
                    traced[name][side].append(
                        {m: v["value"] for m, v in result["metrics"].items()})
        payload["trace"] = {
            "seconds": args.trace_seconds,
            "workloads": {name: {side: {m: [run[m] for run in runs]
                                        for m in runs[0]}
                                 for side, runs in sides.items()}
                          for name, sides in traced.items()},
        }
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(json.dumps({"all_hold": payload.get("all_hold"),
                      "out": str(args.out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

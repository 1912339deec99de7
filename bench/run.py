"""varmcf benchmark: one workload per process, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload residual-circle --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: set-up time
(median over fresh processes) and op time (median over the run's ops),
both scaled to a fixed host speed by a calibration unit timed between them
(see ``calibration.py``), and peak resident memory, plus the failure count
and the unscaled wall times. ``--trace 1`` runs untraced and traced ops
alternately and prints the per-layer metrics and the tracing overhead.
Every op's output is checked; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A copy of each result, and the spans of a traced run, go to
``bench_results/``.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2.
"""

import os
import sys

# One thread everywhere, set before numpy loads its BLAS.
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
)}
os.environ.update(PINNED_ENV)
os.environ.pop("VARMCF_THREADS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench_results"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit")
    return parser.parse_args(argv)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not (SRC / "varmcf" / "__init__.py").is_file():
        fail(f"no varmcf sources under {SRC}; run the benchmark from the "
             "root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import varmcf
    if Path(varmcf.__file__).resolve().parent != SRC / "varmcf":
        fail(f"varmcf was imported from {varmcf.__file__}, not from {SRC}")


def machine_info(seed):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": PINNED_ENV,
        "VARMCF_THREADS": None,
        "seed": seed,
    }


def measure_setup(workload, seed, calibrate):
    """Seconds from process start until an op can run, in fresh processes:
    interpreter start, imports, kernel pair and inputs. A calibration unit
    runs before the first process and after each: (seconds, unit seconds)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    times, units = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with code {code}")
        times.append(elapsed)
        units.append(calibrate())
    return times, units


# glibc keeps freed heap pages mapped and reuses them in an order that
# varies from process to process, so without a trim an op starts from a
# resident size that differs by tens of MiB between runs of the same code.
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)


def settle():
    """Free the previous op's garbage and return free heap pages to the
    system, so that every op starts from the same resident memory."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def run_op(wl, reference, tracer):
    """Time one op and check its output: (seconds, problems)."""
    settle()
    start = time.perf_counter()
    try:
        out = wl.op(tracer)
    except Exception as exc:  # an op that raises is a failed op
        return time.perf_counter() - start, [f"op raised {exc!r}"]
    elapsed = time.perf_counter() - start
    try:
        problems = wl.check(out, reference)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    return elapsed, problems


class OpLog:
    """Attempted and failed ops, with the first problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def run_untraced(wl, reference, seconds, calibrate):
    """Ops with a calibration unit before the first and after each op:
    (op seconds, unit seconds, log), one more unit than ops."""
    from tracing import NULL_TRACER

    log = OpLog()
    times, units = [], [calibrate()]
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        elapsed, problems = run_op(wl, reference, NULL_TRACER)
        times.append(elapsed)
        units.append(calibrate())
        log.record(problems)
    return times, units, log


def scaled_seconds(times, units, reference_unit_s):
    """Each time over the mean of the units timed just before and after
    it, times the unit's reference seconds: the time on a host that runs
    the unit in ``reference_unit_s``."""
    return [reference_unit_s * t / (0.5 * (before + after))
            for t, before, after in zip(times, units, units[1:])]


def run_traced(wl, reference, seconds):
    """Traced and untraced ops in ABBA order after one untimed warm-up op:
    the first op of a process pays one-off costs that would bias the
    comparison of two small samples."""
    import tracing

    log = OpLog()
    tracer = tracing.Tracer()
    log.record(run_op(wl, reference, tracing.NULL_TRACER)[1])
    traced_ops, traced_times, plain_times = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < deadline:
        if index % 4 in (0, 3):
            with tracer.traced_op(index):
                elapsed, problems = run_op(wl, reference, tracer)
            traced_ops.append(index)
            traced_times.append(elapsed)
        else:
            elapsed, problems = run_op(wl, reference, tracing.NULL_TRACER)
            plain_times.append(elapsed)
        log.record(problems)
        index += 1
    metrics, differing = tracing.layer_metrics(tracer, traced_ops)
    if differing:
        log.failed = min(log.attempted, log.failed + 1)
        log.problems.append("counters differ between identical ops: "
                            + ", ".join(differing))
    traced_op_s = statistics.median(traced_times)
    untraced_op_s = statistics.median(plain_times)
    metrics["trace.overhead_s"] = traced_op_s - untraced_op_s
    return metrics, log, tracer, (traced_op_s, untraced_op_s)


def tail_percentile(times, beyond=10):
    """The highest percentile with at least ``beyond`` ops above it."""
    if len(times) <= 2 * beyond:
        return (f"no tail percentile: one needs {beyond} ops beyond it, "
                f"so over {2 * beyond} ops")
    pct = int(100 * (1 - beyond / len(times)))
    return (f"p{pct} = "
            f"{statistics.quantiles(times, n=100)[pct - 1]:.4f} s")


def write_results(name, payload):
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / name, "w") as fh:
        json.dump(payload, fh, indent=1)


def main():
    args = parse_args(sys.argv[1:])
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             + ", ".join(workloads.WORKLOADS))
    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed)
        print("ready", flush=True)
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    info = machine_info(args.seed)
    print("machine: " + json.dumps(info), flush=True)
    reference = workloads.load_reference(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: reference "
          + ("recorded" if reference else "not recorded; invariant checks "
             "only"), flush=True)

    if args.trace:
        wl = make(args.seed)
        metrics, log, tracer, (traced, plain) = run_traced(
            wl, reference, args.seconds)
        print(f"traced op_s {traced:.4f} s, untraced op_s {plain:.4f} s, "
              f"tracing overhead {metrics['trace.overhead_s']:.4f} s")
        print(f"curvature.pair_hit_ratio = curvature.pairs "
              f"{metrics['curvature.pairs']} / kernels.evals "
              f"{metrics['kernels.evals']}; curvature.atoms computed from "
              "the eps/4 subcell rule for volumetric input")
        extra = {"traced_op_s": traced, "untraced_op_s": plain}
        write_results(f"trace-{args.workload}-seed{args.seed}.json", {
            "machine": info,
            "fields": ["op", "name", "start", "end", "parent"],
            "spans": tracer.spans,
            "counters": {str(k): v for k, v in tracer.counters.items()},
        })
    else:
        from calibration import REFERENCE_UNIT_S, Calibration

        calibrate = Calibration().unit
        setup_runs, setup_units = measure_setup(args.workload, args.seed,
                                                calibrate)
        setup_scaled = scaled_seconds(setup_runs, setup_units,
                                      REFERENCE_UNIT_S)
        wl = make(args.seed)
        times, unit_times, log = run_untraced(wl, reference, args.seconds,
                                              calibrate)
        scaled = scaled_seconds(times, unit_times, REFERENCE_UNIT_S)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        extra = {"setup_runs_s": setup_runs, "setup_unit_times_s": setup_units,
                 "setup_scaled_s": setup_scaled, "op_times_s": times,
                 "unit_times_s": unit_times, "op_scaled_s": scaled}
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "op_scaled_s": statistics.median(scaled),
            "peak_rss_mib": peak_kib / 1024.0,
        }
        print(f"setup_s      = {metrics['setup_s']:.4f} s (median of "
              f"{len(setup_runs)} fresh processes, scaled; wall median "
              f"{statistics.median(setup_runs):.4f} s)")
        print(f"op_scaled_s  = {metrics['op_scaled_s']:.4f} s (median of "
              f"{len(scaled)} ops; {tail_percentile(scaled)}; unit "
              f"{REFERENCE_UNIT_S:g} s at reference speed)")
        print(f"wall op      = {statistics.median(times):.4f} s (median; "
              f"{tail_percentile(times)}; calibration unit median "
              f"{statistics.median(unit_times):.4f} s, unscaled)")
        print(f"peak_rss_mib = {metrics['peak_rss_mib']:.1f} MiB")

    print(f"fail_ratio   = {log.failed}/{log.attempted} = "
          f"{log.failed / log.attempted:g} (failed / attempted ops)")
    for problem in log.problems:
        print(f"check failed: {problem}")
    missing = set(units) ^ set(metrics)
    if missing:
        fail(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    for name in units:
        if args.trace:
            print(f"{name} = {metrics[name]!r} {units[name]}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    write_results(
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"machine": info, "settings": wl.cfg, "seconds": args.seconds,
         "problems": log.problems, **extra, **result},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

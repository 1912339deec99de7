"""Record the reference outputs the benchmark compares every op against.

Run from the repository root on a commit whose outputs are trusted:

    python3 bench/record.py --seeds 0-19 --source "varmcf 0.1.0 at <commit>"

For each workload and seed it runs one default-size op, requires that the
invariant checks pass, and writes the values that later runs must
reproduce (to 1e-12 relative, or 1e-9 for the LP) to
``bench/reference.json``. Seeds without a record are still checked against
the invariants.
"""

import argparse
import json
import sys

import run


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def format_reference(source, recorded):
    """JSON text with one line per workload and seed."""
    blocks = []
    for name, seeds in recorded.items():
        lines = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(values)}"
                           for seed, values in seeds.items())
        blocks.append(f"  {json.dumps(name)}: {{\n{lines}\n  }}")
    body = ",\n".join(blocks)
    return (f'{{\n "source": {json.dumps(source)},\n'
            f' "workloads": {{\n{body}\n }}\n}}\n')


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--source", required=True,
                        help="label of the code the values come from")
    args = parser.parse_args()
    run.import_library()
    import tracing
    import workloads

    recorded = {}
    for name, make in workloads.WORKLOADS.items():
        recorded[name] = {}
        for seed in args.seeds:
            wl = make(seed)
            out = wl.op(tracing.NULL_TRACER)
            problems = wl.check(out, None)
            if problems:
                run.fail(f"{name} seed {seed}: {problems}")
            recorded[name][str(seed)] = wl.record(out)
            print(f"recorded {name} seed {seed}", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write(format_reference(args.source, recorded))
    return 0


if __name__ == "__main__":
    sys.exit(main())

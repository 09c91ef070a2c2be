#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload server --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload again under the layer sampler and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOAD_NAMES = ("server", "group-churn", "sched-storm")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro package under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import measure

    if args.trace:
        result = measure.per_layer(args.workload, args.seed, args.seconds)
    else:
        result = measure.end_to_end(args.workload, args.seed, args.seconds)
    correct, attempted, failed, metrics, notes, problems = result

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    for name, (value, unit) in metrics.items():
        base = measure.RATIO_BASES.get(name)
        print("  %-32s %18.6g %-10s%s" % (name, value, unit,
                                          "  of " + base if base else ""))
    for name, value in notes.items():
        print("  %-32s %s" % (name, value))
    for problem in problems:
        print("  PROBLEM: %s" % problem)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the paper-reproduction experiments from the command line.

    python -m repro.bench                       # run everything once
    python -m repro.bench E1 E6                 # run a subset
    python -m repro.bench --list                # show what exists
    python -m repro.bench e15 --seeds 10 --jobs 4 --profile

Each experiment prints its table and claim results; a non-zero exit code
means some claim failed.  Tables land in benchmarks/results/ along with
a machine-readable BENCH_<eid>.json.

``--seeds N`` additionally runs each experiment under N perturbation
seeds (sharded across ``--jobs`` host processes), attaches a bootstrap
confidence interval to every metric (stored under ``"stats"`` in the
BENCH json, gated on CI overlap by benchmarks/compare_bench.py), and
requires the paper claims to hold under *every* seed, not just the
default schedule.  ``--profile`` samples the host profiler
(:mod:`repro.obs.profile`) and writes the per-layer host-time table plus
``sim_cycles_per_host_sec`` to BENCH_HOST.json, every run and seed-sweep
shard counted once.  That file is observability, not a gate: host speed
is gated by ``benchmarks/host_ab.py``, which runs the base commit and
this checkout side by side on one machine.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import ALL_EXPERIMENTS


def _list_experiments() -> int:
    for eid, func in ALL_EXPERIMENTS.items():
        doc = (func.__doc__ or "").strip().splitlines()
        print("%-4s %s" % (eid, doc[0] if doc else func.__name__))
    return 0


def _write_host_json(summary: dict) -> str:
    import json
    import os

    from repro.bench.harness import _default_results_dir

    directory = os.environ.get("REPRO_RESULTS_DIR", _default_results_dir())
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "BENCH_HOST.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("eids", nargs="*", metavar="EID",
                        help="experiments to run (default: all)")
    parser.add_argument("--list", "-l", action="store_true",
                        help="list experiments and exit")
    parser.add_argument("--seeds", type=int, default=0, metavar="N",
                        help="run each experiment under N perturbation "
                             "seeds and attach bootstrap CIs")
    parser.add_argument("--jobs", type=int, default=None, metavar="J",
                        help="host processes for the seed sweep "
                             "(default: min(seeds, cpu_count))")
    parser.add_argument("--profile", action="store_true",
                        help="sample the host profiler; write "
                             "BENCH_HOST.json")
    parser.add_argument("--scale", choices=("full", "quick"), default=None,
                        help="workload scale for experiments that take "
                             "one (E17): full for nightly/acceptance "
                             "runs, quick for per-PR CI")
    args = parser.parse_args(argv[1:])

    if args.list:
        return _list_experiments()

    # Host-side tuning only: bench processes are short-lived, so cyclic
    # garbage (generator frames, proc parent/child links) is reclaimed at
    # exit anyway, while collector pauses otherwise eat 10-20% of the
    # measured wall time on the event-dense experiments.
    import gc

    gc.disable()

    chosen = [eid.upper() for eid in args.eids] or list(ALL_EXPERIMENTS)
    unknown = [eid for eid in chosen if eid not in ALL_EXPERIMENTS]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown))
        print("available: %s" % ", ".join(ALL_EXPERIMENTS))
        return 2

    from repro.obs.profile import profiling

    failures = 0
    with profiling(args.profile) as session:
        for eid in chosen:
            import inspect

            func = ALL_EXPERIMENTS[eid]
            kwargs = {}
            if (args.scale is not None
                    and "scale" in inspect.signature(func).parameters):
                kwargs["scale"] = args.scale
            result = func(**kwargs)
            if args.seeds > 0:
                from repro.bench.stats import run_sweep

                sweep = run_sweep(
                    eid, nseeds=args.seeds, jobs=args.jobs,
                    profiled=args.profile, **kwargs,
                )
                result.stats = sweep.stats()
                if session is not None:
                    session.absorb(sweep.host_summary())
                print(sweep.render())
                failures += len(sweep.failed_claims)
            result.save()
            result.save_json()
            failures += sum(1 for claim in result.claims if not claim.holds)

    if session is not None:
        path = _write_host_json(session.summary())
        print(session.render())
        print("host profile written to %s" % path)

    if failures:
        print("%d claim(s) FAILED" % failures)
        return 1
    print("all claims hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

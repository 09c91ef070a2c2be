"""``python -m repro.check`` — the race-check / fault-injection CLI.

Modes (first positional argument, default ``explore``):

* **explore**: every scenario in ``--scenarios`` runs once unperturbed
  and once per seed in ``0..N-1``; exit 1 on any error, invariant
  finding, lockdep violation or final-state divergence.

      python -m repro.check --seeds 8
      python -m repro.check --seeds 200 --report report.json

  With ``--seed`` it reproduces one run of one scenario — exactly the
  command a failure report prints:

      python -m repro.check --scenario racy-counter --seed 3 --features place

* **inject**: the fault-injection sweep — record which failpoints each
  scenario reaches, then arm them one at a time and audit for leaks.

      python -m repro.check inject
      python -m repro.check inject --deep --report inject-report.json

  With ``--site``/``--policy`` it runs one injection — again exactly
  what a failure report prints:

      python -m repro.check inject --scenario fd-churn --site fd.alloc --policy nth:3
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.check.explore import explore, run_once
from repro.check.inject import SWEEP_SCENARIOS, run_injected, sweep
from repro.check.scenarios import DEFAULT_SCENARIOS, SCENARIOS
from repro.inject import SITES
from repro.obs.profile import profiling
from repro.sim.engine import PERTURB_FEATURES


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="schedule explorer / invariant checker / fault injector",
    )
    parser.add_argument(
        "mode", nargs="?", default="explore", choices=["explore", "inject"],
        help="explore schedules (default) or sweep fault-injection sites",
    )
    parser.add_argument(
        "--seeds", type=int, default=8, metavar="N",
        help="perturbation seeds per scenario (default 8, explore mode)",
    )
    parser.add_argument(
        "--scenarios", default=None, metavar="A,B",
        help="comma-separated scenario names (default: %s for explore, "
        "%s for inject)"
        % (",".join(DEFAULT_SCENARIOS), ",".join(SWEEP_SCENARIOS)),
    )
    parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="single scenario for --seed / --site reproduction modes",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="reproduce one explore run under this seed and exit",
    )
    parser.add_argument(
        "--features", default=None, metavar="F,G",
        help="perturbation features for --seed mode (default: all of %s)"
        % ",".join(sorted(PERTURB_FEATURES)),
    )
    parser.add_argument(
        "--site", default=None, metavar="SITE",
        help="inject mode: reproduce one injection at this failpoint",
    )
    parser.add_argument(
        "--policy", default="nth:1", metavar="P",
        help="inject mode: failpoint policy for --site (default nth:1)",
    )
    parser.add_argument(
        "--sites", default=None, metavar="A,B",
        help="inject mode: restrict the sweep to these sites",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help="inject mode: also arm midpoint hit indices (nightly matrix)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip minimizing failures (features / hit indices)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write a JSON report here",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list scenarios (and inject sites) and exit",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="sample the host profiler; print the per-layer host-time "
        "table after the run",
    )
    return parser.parse_args(argv)


def _resolve(names, universe=SCENARIOS, what="scenario") -> Optional[str]:
    """Returns an error message when a name is unknown."""
    unknown = [name for name in names if name not in universe]
    if unknown:
        return "unknown %s(s): %s (have: %s)" % (
            what, ", ".join(unknown), ", ".join(sorted(universe)))
    return None


def _reproduce(args) -> int:
    name = args.scenario or (args.scenarios or ",".join(DEFAULT_SCENARIOS)).split(",")[0]
    error = _resolve([name])
    if error:
        print(error, file=sys.stderr)
        return 2
    features = (
        frozenset(args.features.split(",")) if args.features else PERTURB_FEATURES
    )
    result = run_once(SCENARIOS[name], seed=args.seed, features=features)
    print(
        "%s seed=%d features=%s"
        % (name, args.seed, ",".join(sorted(features)))
    )
    if result.error is not None:
        print("error (%s):" % result.error_kind)
        for line in result.error.splitlines():
            print("  " + line)
    else:
        print("completed in %d cycles" % result.cycles)
        print(json.dumps(result.fingerprint, indent=2, sort_keys=True))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
    return 0 if result.ok else 1


def _inject_one(args) -> int:
    name = args.scenario or (args.scenarios or ",".join(SWEEP_SCENARIOS)).split(",")[0]
    error = _resolve([name]) or _resolve([args.site], SITES, "site")
    if error:
        print(error, file=sys.stderr)
        return 2
    result = run_injected(SCENARIOS[name], args.site, args.policy)
    print(
        "%s site=%s policy=%s -> %s (fired %d, %d cycles)"
        % (name, args.site, args.policy, result.status, result.fired,
           result.cycles)
    )
    for line in result.detail.splitlines():
        print("  | " + line)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
    return 0 if result.ok else 1


def _inject_sweep(args) -> int:
    names = [name for name in (args.scenarios or "").split(",") if name] or None
    error = _resolve(names or [])
    if error:
        print(error, file=sys.stderr)
        return 2
    sites = [site for site in (args.sites or "").split(",") if site] or None
    error = _resolve(sites or [], SITES, "site")
    if error:
        print(error, file=sys.stderr)
        return 2
    report = sweep(
        names, site_names=sites, deep=args.deep,
        shrink_failures=not args.no_shrink,
    )
    print(report.render())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    with profiling(args.profile) as session:
        status = _dispatch(args)
    if session is not None:
        print()
        print(session.render())
    return status


def _dispatch(args) -> int:
    if args.list:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            default = " (default)" if name in DEFAULT_SCENARIOS else ""
            print("%-14s %s%s" % (name, scenario.description, default))
        if args.mode == "inject":
            print()
            for site in sorted(SITES):
                print("%-22s %s" % (site, SITES[site]))
        return 0
    if args.mode == "inject":
        if args.site is not None:
            return _inject_one(args)
        return _inject_sweep(args)
    if args.seed is not None:
        return _reproduce(args)
    names = [
        name
        for name in (args.scenarios or ",".join(DEFAULT_SCENARIOS)).split(",")
        if name
    ]
    error = _resolve(names)
    if error:
        print(error, file=sys.stderr)
        return 2
    report = explore(
        names, nseeds=args.seeds, shrink_failures=not args.no_shrink
    )
    print(report.render())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

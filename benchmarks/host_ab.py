"""Same-runner host-speed A/B gate: this checkout against a base commit.

    python benchmarks/host_ab.py BASE

Checks ``BASE`` out into a temporary ``git worktree``, copies this
checkout's ``perfbench/`` over the worktree's copy (so both sides run
the same benchmark code, and only ``src/`` differs), then runs
``perfbench/run.py --trace 0`` on every workload for :data:`PAIRS`
pairs, alternating which side goes first.  Both sides run on the same
machine, interleaved, so runner speed and drift cancel out of the
per-pair ratios head/base.

A workload fails the gate when, on ``ops_per_host_s`` or
``sim_cycles_per_host_s``:

* the median ratio is below :data:`FLOOR`, or
* the upper end of the bootstrap CI of the mean ratio
  (:func:`repro.bench.stats.bootstrap_ci`) is below :data:`CI_CEILING`,

or when the head reports ``correct: false`` or a larger failed/attempted
share than the base.  Every simulated ``sim_*`` metric (all but the
``sim_cycles_per_host_s`` rate) that differs between the sides is
printed: on a host-speed change, that means the simulated
history moved.  It does not fail the gate.

Stdlib only.  Exit codes: 0 pass, 1 regression, 2 usage or run error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench.stats import bootstrap_ci  # noqa: E402

WORKLOADS = ("server", "group-churn", "sched-storm")

#: the host-speed metrics the gate compares, both higher-is-better
RATE_METRICS = ("ops_per_host_s", "sim_cycles_per_host_s")

#: pairs per workload.  At perfbench's shortest runs a per-pair ratio
#: scatters by about 5% (sd), with an occasional pair 20% off; five pairs
#: let one such pair lift the CI's upper end over CI_CEILING under a 15%
#: slowdown.  With ten, a 10% slowdown puts the upper end near 0.93 and
#: identical code keeps it near 1.0.  A pair of all three workloads takes
#: about 135 s on a 2-vCPU x86 VM, so the gate takes about 22 minutes.
PAIRS = 10

#: perfbench ``--seconds`` per workload.  0 makes a run exactly
#: perfbench's minimum repetitions (three; on server one per instance,
#: five).  sched-storm's repetitions last about 2.5 s, and at three of
#: them its per-pair ratio scattered by about 7% (sd); 20 s runs (about
#: eight repetitions) halved that.
SECONDS = {"server": 0, "group-churn": 0, "sched-storm": 20}

#: fail when the median ratio head/base is below this (the bound of the
#: cross-machine gate this one replaced, so it is no looser)
FLOOR = 0.65

#: fail when the bootstrap CI of the mean ratio lies wholly below this
CI_CEILING = 0.95


def _fail_share(runs) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def decide(workload, base_runs, head_runs):
    """``(lines, failures)`` for one workload's paired parsed results.

    ``base_runs[i]`` and ``head_runs[i]`` are pair ``i``: the JSON objects
    on the last line of ``perfbench/run.py``'s output.  ``lines`` is the
    report to print; ``failures`` is empty when the head passes.
    """
    lines, failures = [], []
    for metric in RATE_METRICS:
        ratios = [head["metrics"][metric]["value"] / base["metrics"][metric]["value"]
                  for base, head in zip(base_runs, head_runs)]
        median = statistics.median(ratios)
        lo, hi = bootstrap_ci(ratios)
        lines.append("%s %s head/base: median %.3f, 95%% CI of mean [%.3f, %.3f] "
                     "over %d pairs" % (workload, metric, median, lo, hi, len(ratios)))
        if median < FLOOR:
            failures.append("%s %s: median ratio %.3f below the floor %.2f"
                            % (workload, metric, median, FLOOR))
        if hi < CI_CEILING:
            failures.append("%s %s: CI upper end %.3f below %.2f"
                            % (workload, metric, hi, CI_CEILING))
    if not all(run["correct"] for run in head_runs):
        failures.append("%s: head reports correct: false" % workload)
    base_share, head_share = _fail_share(base_runs), _fail_share(head_runs)
    if head_share > base_share:
        failures.append("%s: head failed share %.6f above base %.6f"
                        % (workload, head_share, base_share))
    for metric in sorted(base_runs[0]["metrics"]):
        if not metric.startswith("sim_") or metric in RATE_METRICS:
            continue
        before = sorted({run["metrics"][metric]["value"] for run in base_runs})
        after = sorted({run["metrics"][metric]["value"] for run in head_runs})
        if before != after:
            lines.append("%s %s differs: base %s, head %s (simulated history moved)"
                         % (workload, metric, before, after))
    return lines, failures


def _run(checkout, workload) -> dict:
    """One perfbench run in ``checkout``; its parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(SECONDS[workload]), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError("perfbench %s in %s exited %d:\n%s"
                           % (workload, checkout, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare this checkout against")
    args = parser.parse_args(argv)
    try:
        sha = _git("rev-parse", "--verify", args.base + "^{commit}")
    except subprocess.CalledProcessError as err:
        print("host_ab: cannot resolve %r: %s" % (args.base, err.stderr.strip()),
              file=sys.stderr)
        return 2

    scratch = tempfile.mkdtemp(prefix="host-ab-")
    worktree = os.path.join(scratch, "base")
    failures = []
    try:
        _git("worktree", "add", "--detach", worktree, sha)
        shutil.rmtree(os.path.join(worktree, "perfbench"), ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(worktree, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        print("host A/B: head %s against base %s, %d pairs per workload"
              % (ROOT, sha[:12], PAIRS), flush=True)
        for workload in WORKLOADS:
            base_runs, head_runs = [], []
            for pair in range(PAIRS):
                sides = [(worktree, base_runs), (ROOT, head_runs)]
                if pair % 2:
                    sides.reverse()
                for checkout, runs in sides:
                    runs.append(_run(checkout, workload))
                print("  %s pair %d: ops_per_host_s base %.0f head %.0f"
                      % (workload, pair + 1, base_runs[-1]["metrics"]["ops_per_host_s"]["value"],
                         head_runs[-1]["metrics"]["ops_per_host_s"]["value"]), flush=True)
            lines, found = decide(workload, base_runs, head_runs)
            print("\n".join(lines), flush=True)
            failures.extend(found)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as err:
        print("host_ab: %s" % (getattr(err, "stderr", None) or err), file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in failures:
        print("REGRESSION %s" % failure)
    print("host A/B: %s" % ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Drive one workload instance through the library's public surface.

Each driver builds a :class:`repro.System` from the seeded inputs,
spawns the root program, runs it to completion, snapshots
``metrics()``, runs ``run_invariants`` and ``audit_leaks`` on the
drained system, and returns an :class:`Outcome`.  Every call into the
library is wrapped in a :class:`layers.Spans` span.

A *referenced* run times the host's speed as it goes: a reference loop
ends the set-up, and ``run()`` is driven in slices of engine events
(``run(max_events=...)``, which leaves the simulated history and clock
exactly as one ``run()`` call would) with a reference loop after each.  Each slice
takes about half a host second, so the loops follow the host's speed
closely and cost about 4%.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import DeadlockError, System
from repro.check.invariants import audit_leaks, run_invariants
from repro.workloads.server import run_server

import programs
from layers import Spans

class Outcome:
    """What one run of a workload instance produced."""

    def __init__(self, system: System, ops: int, failed: int,
                 latencies: List[Tuple[int, int]], results: Dict[str, int],
                 findings: List[str]):
        self.system = system
        self.ops = ops
        self.failed = failed
        #: ``(latency_cycles, weight)`` samples, in completion order
        self.latencies = latencies
        self.results = results
        #: run_invariants + audit_leaks findings after the drain
        self.findings = findings


#: engine events per ``run()`` slice of a referenced run: about half a
#: host second each
SLICE_EVENTS = {"server": 50_000, "group-churn": 25_000, "sched-storm": 30_000}


class SetupDone(Exception):
    """Raised where ``run()`` would start, when only set-up is timed."""


def _bench_system(spans: Spans, built: List[System], setup_only: bool,
                  slice_events: Optional[int]):
    """A System whose construction, spawn and run are timed as spans.

    ``run_server`` builds its System itself; the subclass is how the
    benchmark times the library's calls, keeps hold of the system,
    slices a referenced run, and stops before the run when only set-up
    is timed, without reaching inside the library.  ``slice_events`` is
    None for an unreferenced run: one ``run()`` call, as a traced
    repetition needs, since the sampler would charge reference loops to
    the ``host`` layer.
    """

    class BenchSystem(System):
        def __init__(self, **kwargs):
            spans.end()  # the inputs span ends where System() starts
            with spans.span("system"):
                super().__init__(**kwargs)
            built.append(self)

        def spawn(self, *args, **kwargs):
            with spans.span("spawn"):
                return super().spawn(*args, **kwargs)

        def run(self, *args, **kwargs):
            if slice_events is None:
                with spans.span("run"):
                    return super().run(*args, **kwargs)
            spans.reference()  # ends the set-up
            if setup_only:
                raise SetupDone()
            while not self.engine.idle():
                with spans.span("run"):
                    super().run(max_events=slice_events)
                spans.reference()
            # drained: returns at once, after the deadlock check
            return super().run(*args, **kwargs)

    return BenchSystem


def _audit(system: System, spans: Spans) -> List[str]:
    with spans.span("metrics"):
        system.metrics()
    with spans.span("invariants"):
        findings = run_invariants(system)
    with spans.span("audit"):
        findings += audit_leaks(system)
    return findings


def _slices(workload: str, referenced: bool) -> Optional[int]:
    return SLICE_EVENTS[workload] if referenced else None


def run_server_workload(seed: int, spans: Spans, scale: float = 1.0,
                        setup_only: bool = False, referenced: bool = False,
                        **system_kwargs) -> Optional[Outcome]:
    """An op is a served request; a latency sample is a batch, weighted
    by its requests and timed from its *scheduled* arrival."""
    spans.begin("inputs")
    cfg = programs.server_config(seed, scale)
    built: List[System] = []
    system_cls = _bench_system(spans, built, setup_only, _slices("server", referenced))
    try:
        out = run_server(cfg, ncpus=programs.SERVER_NCPUS, system_cls=system_cls,
                         **system_kwargs)
    except SetupDone:
        return None
    except DeadlockError as exc:
        return Outcome(built[0], cfg.nrequests, cfg.nrequests, [], {}, [str(exc)])
    system = out["system"]
    findings = _audit(system, spans)
    failed = cfg.nrequests - out["completed"]
    if out["verify_failures"]:
        findings.append("server: %d cache verify failures" % out["verify_failures"])
        failed = cfg.nrequests
    results = {key: out[key] for key in (
        "completed", "hits", "misses", "collapsed", "evictions",
        "verify_failures", "max_inflight", "makespan")}
    return Outcome(system, cfg.nrequests, failed, list(out["stats"].latencies),
                   results, findings)


def _run_closed(root, plan, ops: int, spans: Spans, setup_only: bool,
                slice_events: Optional[int], **system_kwargs) -> Optional[Outcome]:
    """Boot, run and audit a closed-loop workload.

    An op is one program iteration, timed from its start; the programs
    append a latency sample per completed op, and report failed checks.
    """
    ctx = {"plan": plan, "latencies": [], "failed": [], "failed_rounds": []}
    system = _bench_system(spans, [], setup_only, slice_events)(ncpus=4, **system_kwargs)
    system.spawn(root, ctx, name="bench-root")
    try:
        system.run()
    except SetupDone:
        return None
    except DeadlockError as exc:
        return Outcome(system, ops, ops, [], {}, [str(exc)])
    findings = _audit(system, spans)
    completed = len(ctx["latencies"])
    # a round whose leader-side checks failed fails all of its ops
    failed = min(ops, len(ctx["failed"]) + sum(ctx["failed_rounds"]) + ops - completed)
    results = {"completed": completed, "failed_checks": len(ctx["failed"]),
               "failed_rounds": len(ctx["failed_rounds"])}
    return Outcome(system, ops, failed, ctx["latencies"], results, findings)


def run_group_churn(seed: int, spans: Spans, scale: float = 1.0,
                    setup_only: bool = False, referenced: bool = False,
                    **system_kwargs) -> Optional[Outcome]:
    spans.begin("inputs")
    plan = programs.churn_plan(seed, scale)
    ops = sum(sum(rnd.iters) for rounds in plan for rnd in rounds)
    return _run_closed(programs.churn_root, plan, ops, spans, setup_only,
                       _slices("group-churn", referenced), **system_kwargs)


def run_sched_storm(seed: int, spans: Spans, scale: float = 1.0,
                    setup_only: bool = False, referenced: bool = False,
                    **system_kwargs) -> Optional[Outcome]:
    spans.begin("inputs")
    plan = programs.storm_plan(seed, scale)
    ops = sum(len(steps) for members in plan for steps in members)
    return _run_closed(programs.storm_root, plan, ops, spans, setup_only,
                       _slices("sched-storm", referenced), **system_kwargs)


WORKLOADS = {
    "server": run_server_workload,
    "group-churn": run_group_churn,
    "sched-storm": run_sched_storm,
}

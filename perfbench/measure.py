"""Repetitions, metrics, layer counts and the simulation digest.

An untraced repetition runs one workload with the garbage collector
off (as ``python -m repro.bench`` does) and the built-in
``System(profile=...)`` profiler off, times set-up and ``run()`` from
the spans at the reference host speed (see :func:`_between_references`),
and folds the simulated outcome into a digest.  A traced repetition
runs the same workload under :class:`layers.Sampler`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.workloads.server import weighted_percentile

from harness import WORKLOADS, Outcome
from layers import MEM_LAYERS, REF_S, Sampler, Spans

#: fewest repetitions a run makes, however long they take
MIN_REPS = 3

#: the settings every run records beside its metrics
SETTINGS = {
    "gc": "off during set-ups and repetitions, collected between them "
          "(as python -m repro.bench)",
    "profiler": "System(profile=...) off",
}

#: set-ups timed on their own before the repetitions, cycling through
#: the workload's instances; a multiple of every instance count, so each
#: instance weighs the same in the set-up median
SETUP_TRIALS = 20

Metrics = Dict[str, Tuple[float, str]]

#: kernel.stats keys folded into the digest; a fixed list, so counters
#: added to the kernel later do not change it
DIGEST_STATS = (
    "syscalls", "syscall_errors", "faults", "forks", "sprocs", "exits",
    "groups_created", "groups_freed", "shootdowns", "opens", "pipes",
    "mmaps", "munmaps", "bytes_read", "bytes_written", "sync_entries",
    "uwaits", "uwakes", "unshares",
)


def digest(outcome: Outcome) -> str:
    """Hash of a fixed field list of the simulated history.

    Whole kstat dicts are left out on purpose: an observability key
    added later must not change the digest.
    """
    system = outcome.system
    fields = {
        "cycle": system.now,
        "cpus": [[cpu.busy_cycles, cpu.tlb.hits, cpu.tlb.misses]
                 for cpu in system.machine.cpus],
        "latencies": [list(sample) for sample in outcome.latencies],
        "results": outcome.results,
        "stats": [system.kernel.stats[key] for key in DIGEST_STATS],
    }
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: independent instances per run; the simulated metrics are medians over
#: them.  One server instance's p99 rests on 11 batches; the median of
#: five is steady from seed to seed
INSTANCES = {"server": 5, "group-churn": 1, "sched-storm": 1}


def instance_seeds(workload: str, seed: int) -> List[int]:
    """The instances' input seeds, drawn from the run's seed.

    Drawn rather than counted up: the server's inputs come from a
    32-bit LCG, and seeds one apart give streams that differ by a fixed
    offset, so consecutive seeds would not be independent instances.
    """
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(INSTANCES[workload])]


def _between_references(spans: Spans) -> List[Tuple[str, float, float]]:
    """``(first span, seconds, slowdown)`` of each stretch between two
    reference loops.

    The slowdown is the mean time of the two loops over REF_S: how much
    slower than the host the benchmark was defined on the stretch ran.
    A shared host's speed swings by half from one half-minute to the
    next, and the reference loop follows it, so host timings divided by
    their slowdown read the same whenever they are taken.
    """
    records = spans.records
    refs = [(index, start, end) for index, (name, start, end) in enumerate(records)
            if name == "ref"]
    return [
        (records[i + 1][0], start1 - end0, (end0 - start0 + end1 - start1) / (2.0 * REF_S))
        for (i, start0, end0), (_, start1, end1) in zip(refs, refs[1:])
    ]


class Rep:
    """The host timings and simulated summary of one repetition."""

    def __init__(self, seed: int, outcome: Outcome, spans: Spans):
        self.seed = seed
        self.run_s = spans.seconds("run")
        #: ``run()`` host seconds at the reference speed: each slice
        #: divided by its slowdown; 0 when the repetition was traced
        stretches = [(secs, slow) for first, secs, slow in _between_references(spans)
                     if first == "run"]
        self.ref_run_s = sum(secs / slow for secs, slow in stretches)
        self.slowdowns = [slow for _, slow in stretches]
        self.spans = {name: spans.seconds(name) for name in Spans.NAMES}
        self.ops = outcome.ops
        self.failed = outcome.failed
        self.findings = outcome.findings
        self.digest = digest(outcome)
        self.cycles = outcome.system.now
        latencies = outcome.latencies
        self.samples = len(latencies)
        self.sim_ops = sum(n for _, n in latencies)
        self.p50 = weighted_percentile(latencies, 50.0)
        self.p99 = weighted_percentile(latencies, 99.0)


def run_rep(workload: str, seed: int, scale: float = 1.0,
            sampler: Optional[Sampler] = None,
            on_outcome: Optional[Callable[[Outcome], None]] = None,
            **system_kwargs) -> Rep:
    """One repetition of one instance: referenced, or traced when a
    sampler is given.

    The drained system is handed to ``on_outcome`` and then dropped, so
    the next repetition's ``gc.collect()`` frees it.
    """
    gc.collect()
    spans = Spans()
    drive = WORKLOADS[workload]
    if sampler is None:
        spans.reference()
        outcome = drive(seed, spans, scale, referenced=True, **system_kwargs)
    else:
        with sampler.active():
            outcome = drive(seed, spans, scale, **system_kwargs)
    if on_outcome is not None:
        on_outcome(outcome)
    return Rep(seed, outcome, spans)


def setup_trials(workload: str, seeds: List[int]) -> List[Tuple[float, float]]:
    """``(seconds, slowdown)`` of SETUP_TRIALS set-ups, from the
    workload's start to where ``run()`` starts, cycling through
    ``seeds``."""
    trials = []
    for trial in range(SETUP_TRIALS):
        gc.collect()
        spans = Spans()
        spans.reference()
        WORKLOADS[workload](seeds[trial % len(seeds)], spans, setup_only=True,
                            referenced=True)
        [(_, secs, slowdown)] = _between_references(spans)
        trials.append((secs, slowdown))
    return trials


def _repeat(workload: str, seed: int, seconds: float,
            sampler: Optional[Sampler] = None,
            on_first: Optional[Callable[[Outcome], None]] = None) -> Iterator[Rep]:
    """Repetitions until ``seconds`` have passed.

    An untraced run cycles through the workload's instances, running
    each at least once and making at least MIN_REPS repetitions.  A
    traced run (one given a sampler) alternates untraced and traced
    repetitions of the first instance.  ``on_first`` sees the first
    repetition's drained system.  The caller turns the collector off.
    """
    seeds = instance_seeds(workload, seed)
    if sampler is not None:
        seeds, need = seeds[:1], 2
    else:
        need = max(MIN_REPS, len(seeds))
    start = time.perf_counter()
    index = 0
    while index < need or time.perf_counter() - start < seconds:
        yield run_rep(
            workload, seeds[index % len(seeds)],
            sampler=sampler if index % 2 else None,
            on_outcome=on_first if index == 0 else None,
        )
        index += 1


def _verdict(reps: List[Rep]) -> Tuple[bool, int, int, List[str]]:
    """``(correct, attempted, failed, problems)`` over all repetitions."""
    problems = [finding for rep in reps for finding in rep.findings]
    for seed in sorted({rep.seed for rep in reps}):
        if len({rep.digest for rep in reps if rep.seed == seed}) != 1:
            problems.append("seed %d: simulated history differs between repetitions"
                            % seed)
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if failed:
        problems.append("%d of %d ops failed" % (failed, attempted))
    return not problems, attempted, failed, problems


def _host_median(reps: List[Rep], value: Callable[[Rep], float]) -> float:
    """Median over instances of each instance's median over its
    repetitions, so every instance weighs the same however many
    repetitions fit in the run."""
    return statistics.median(
        statistics.median(value(rep) for rep in reps if rep.seed == seed)
        for seed in {rep.seed for rep in reps})


def end_to_end(workload: str, seed: int, seconds: float):
    """The untraced run: every end-to-end metric, plus the verdict."""
    gc.disable()  # as python -m repro.bench does; collected between reps
    setups = setup_trials(workload, instance_seeds(workload, seed))
    reps = list(_repeat(workload, seed, seconds))
    correct, attempted, failed, problems = _verdict(reps)
    instances = reps[:INSTANCES[workload]]

    def sim_median(value: Callable[[Rep], float]) -> float:
        return statistics.median(value(rep) for rep in instances)

    metrics: Metrics = {
        "setup_s": (statistics.median(secs / slow for secs, slow in setups), "s"),
        "ops_per_host_s": (_host_median(reps, lambda r: r.ops / r.ref_run_s), "ops/s"),
        "sim_cycles_per_host_s": (
            _host_median(reps, lambda r: r.cycles / r.ref_run_s), "cycles/s"),
        "peak_mem_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "fraction"),
        "sim_makespan_cycles": (sim_median(lambda r: r.cycles), "cycles"),
        "sim_p50_cycles": (sim_median(lambda r: r.p50), "cycles"),
        "sim_p99_cycles": (sim_median(lambda r: r.p99), "cycles"),
        "sim_throughput_per_kcycle": (
            sim_median(lambda r: r.sim_ops * 1000.0 / r.cycles), "ops/kcycle"),
    }
    notes = {
        **SETTINGS,
        "reps": len(reps),
        "host_slowdown": "%.3f median over set-ups and run() slices (REF_S %g s)" % (
            statistics.median([slow for _, slow in setups]
                              + [slow for r in reps for slow in r.slowdowns]), REF_S),
        "raw_setup_s": statistics.median(secs for secs, _ in setups),
        "raw_ops_per_host_s": _host_median(reps, lambda r: r.ops / r.run_s),
        "instances": [rep.seed for rep in instances],
        "latency_samples": [rep.samples for rep in instances],
        "error_rate": "%g fraction" % (failed / attempted),
        "sim_digest": hashlib.sha256(
            "".join(rep.digest for rep in instances).encode()).hexdigest(),
    }
    return correct, attempted, failed, metrics, notes, problems


def layer_counts(outcome: Outcome) -> Metrics:
    """Exact per-layer counts from the public counters of a drained run."""
    system = outcome.system
    engine, kstat, stats = system.engine, system.kstat, system.kernel.stats
    cpus = system.machine.cpus
    sched = system.kernel.sched

    def kernel(name: str) -> int:
        return kstat.get("kernel", 0, name)

    def hist(name: str, pct: float = None) -> float:
        found = kstat.hist("kernel", 0, name)
        if found is None:
            return 0.0
        return found.total if pct is None else found.percentile(pct)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def proc_sum(name: str) -> int:
        return sum(kstat.get("proc", pid, name) for pid in kstat.scopes("proc"))

    events = engine.events_processed
    busy = sum(cpu.busy_cycles for cpu in cpus)
    hits = sum(cpu.tlb.hits for cpu in cpus)
    misses = sum(cpu.tlb.misses for cpu in cpus)
    locks = system.lockstats.snapshot().values()
    acquisitions = sum(lock["acquisitions"] for lock in locks)
    results = outcome.results
    accesses = results.get("hits", 0) + results.get("misses", 0) + results.get("collapsed", 0)
    counts = {
        "engine.events": (events, "count"),
        "engine.inline_ratio": (ratio(engine.inline_hops, events), "ratio"),
        "engine.inline_fallbacks": (engine.inline_fallbacks, "count"),
        "cpu.dispatches": (sum(cpu.dispatches for cpu in cpus), "count"),
        "cpu.context_switches": (sum(kstat.get("cpu", cpu.idx, "context_switches")
                                     for cpu in cpus), "count"),
        "cpu.preemptions": (sum(cpu.preemptions for cpu in cpus), "count"),
        "cpu.busy_cycles": (busy, "cycles"),
        "cpu.util": (ratio(busy, len(cpus) * system.now), "ratio"),
        "tlb.hits": (hits, "count"),
        "tlb.misses": (misses, "count"),
        "tlb.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "tlb.flush_pages": (sum(cpu.tlb.flush_pages for cpu in cpus), "count"),
        "tlb.shootdowns": (system.machine.shootdowns, "count"),
        "tlb.shootdown_ipis": (sum(kstat.get("cpu", cpu.idx, "shootdown_ipis_sent")
                                   for cpu in cpus), "count"),
        "fault.total": (stats["faults"], "count"),
        "fault.zero": (proc_sum("fault.zero"), "count"),
        "fault.cow": (proc_sum("fault.cow"), "count"),
        "fault.grow": (proc_sum("fault.grow"), "count"),
        "vm.lookups": (kernel("vm_lookups"), "count"),
        "vm.scan_per_lookup": (ratio(kernel("pregion_scan_len"), kernel("vm_lookups")),
                               "ratio"),
        "mem.mmaps": (stats["mmaps"], "count"),
        "mem.munmaps": (stats["munmaps"], "count"),
        "syscall.count": (stats["syscalls"], "count"),
        "syscall.error_ratio": (ratio(stats["syscall_errors"], stats["syscalls"]), "ratio"),
        "syscall.cycles_total": (hist("syscall_cycles"), "cycles"),
        "syscall.cycles_p99": (hist("syscall_cycles", 99.0), "cycles"),
        "sched.picks": (sched.picks, "count"),
        "sched.runq_wait_cycles_total": (hist("runq_wait"), "cycles"),
        "sched.runq_wait_p99": (hist("runq_wait", 99.0), "cycles"),
        "sched.steals": (sched.steals, "count"),
        "sched.migrations": (sched.migrations, "count"),
        "sched.affinity_ratio": (ratio(sched.affinity_hits, sched.picks), "ratio"),
        "share.sprocs": (stats["sprocs"], "count"),
        "share.forks": (stats["forks"], "count"),
        "share.exits": (stats["exits"], "count"),
        "share.sync_entries": (stats["sync_entries"], "count"),
        "share.unshares": (stats["unshares"], "count"),
        "sync.acquisitions": (acquisitions, "count"),
        "sync.contended_ratio": (
            ratio(sum(lock["contended"] for lock in locks), acquisitions), "ratio"),
        "sync.wait_cycles": (sum(lock["wait_cycles"] for lock in locks), "cycles"),
        "fs.opens": (stats["opens"], "count"),
        "fs.bytes_read": (stats["bytes_read"], "bytes"),
        "fs.bytes_written": (stats["bytes_written"], "bytes"),
        "runtime.uwaits": (stats["uwaits"], "count"),
        "runtime.cache_accesses": (accesses, "count"),
        "runtime.cache_hit_pct": (100.0 * ratio(results.get("hits", 0), accesses), "%"),
        "runtime.cache_evictions": (results.get("evictions", 0), "count"),
        "runtime.cache_collapsed": (results.get("collapsed", 0), "count"),
    }
    return {name: (float(value), unit) for name, (value, unit) in counts.items()}


#: the base each ratio is taken over, printed beside it
RATIO_BASES = {
    "engine.inline_ratio": "engine.events",
    "cpu.util": "ncpus x sim_makespan_cycles",
    "tlb.hit_ratio": "tlb.hits + tlb.misses",
    "vm.scan_per_lookup": "vm.lookups",
    "syscall.error_ratio": "syscall.count",
    "sched.affinity_ratio": "sched.picks",
    "sync.contended_ratio": "sync.acquisitions",
    "runtime.cache_hit_pct": "runtime.cache_accesses",
}


def per_layer(workload: str, seed: int, seconds: float):
    """The traced run: sampled layer times, spans, overhead and counts."""
    gc.disable()  # as in the untraced run
    sampler = Sampler()
    counts: Metrics = {}

    def take_counts(outcome: Outcome) -> None:
        counts.update(layer_counts(outcome))

    reps = list(_repeat(workload, seed, seconds, sampler, take_counts))
    correct, attempted, failed, problems = _verdict(reps)
    plain, traced = reps[0::2], reps[1::2]
    per_rep = 1.0 / len(traced)
    metrics: Metrics = {}
    for layer, secs in sampler.self_seconds().items():
        metrics["self_s." + layer] = (secs * per_rep, "s")
    for layer, secs in sampler.incl_seconds().items():
        metrics["incl_s." + layer] = (secs * per_rep, "s")
    for name in Spans.NAMES:
        metrics["span_s." + name] = (
            statistics.median(rep.spans[name] for rep in traced), "s")
    metrics["trace.overhead"] = (
        statistics.median(r.run_s for r in traced)
        / statistics.median(r.run_s for r in plain), "ratio")
    metrics["trace.samples"] = (sampler.samples * per_rep, "count")
    metrics.update(counts)
    total = sampler.total_seconds()
    notes = {
        **SETTINGS,
        "reps": "%d untraced, %d traced" % (len(plain), len(traced)),
        "self_pct": {layer: round(100.0 * secs / total, 2)
                     for layer, secs in sampler.self_seconds().items()},
        "mem_self_pct": 100.0 * sum(sampler.self_seconds()[layer]
                                    for layer in MEM_LAYERS) / total,
    }
    return correct, attempted, failed, metrics, notes, problems

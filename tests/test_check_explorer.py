"""The invariant pack and the schedule explorer.

Two burdens of proof: the checkers stay silent on healthy systems (and
speak up the moment state is corrupted), and the explorer both passes
the schedule-independent scenarios and catches the deliberately racy
one — reproducibly, from nothing but the seed its report prints.
"""

import json

import pytest

from repro import PR_SALL
from repro.check import __main__ as check_cli
from repro.check.explore import explore, run_once
from repro.check.invariants import (
    check_fd_refcounts,
    check_pregion_index,
    check_pregion_tlb,
    check_runqueue_consistency,
    check_semaphore_waiters,
    check_shaddr_refcounts,
    run_invariants,
)
from repro.check.scenarios import DEFAULT_SCENARIOS, SCENARIOS, Scenario
from repro.kernel.proc import ProcState
from repro.mem.frames import PAGE_SIZE
from repro.mem.pregion import Growth
from repro.system import System


def _partial_fd_churn():
    """fd-churn frozen mid-flight: live members, open files, warm TLBs."""
    scenario = SCENARIOS["fd-churn"]
    out = {}
    sim = System(ncpus=scenario.ncpus, lockdep=True)
    sim.spawn(scenario.main, out, name=scenario.name)
    sim.run(max_events=400, check_deadlock=False)
    assert any(proc.alive() for proc in sim.kernel.proc_table.all_procs())
    return sim


# ----------------------------------------------------------------------
# invariants: silent when healthy, loud when corrupted


def test_invariants_clean_mid_run():
    sim = _partial_fd_churn()
    assert run_invariants(sim) == []


def test_shaddr_refcount_corruption_detected():
    sim = _partial_fd_churn()
    block = next(
        proc.shaddr
        for proc in sim.kernel.proc_table.all_procs()
        if proc.alive() and proc.shaddr is not None
    )
    block.s_refcnt += 1
    findings = check_shaddr_refcounts(sim)
    assert findings and "s_refcnt" in findings[0]


def test_stale_tlb_entry_detected():
    sim = _partial_fd_churn()
    asid = next(
        proc.vm.asid
        for proc in sim.kernel.proc_table.all_procs()
        if proc.alive()
    )
    # a translation no live address space backs: a missed shootdown
    sim.machine.cpus[0].tlb.insert(asid, 0x7FF99, 4242, writable=False)
    findings = check_pregion_tlb(sim)
    assert findings and "stale entry" in findings[0]


def test_stale_pregion_index_detected():
    sim = _partial_fd_churn()
    block = next(
        proc.shaddr
        for proc in sim.kernel.proc_table.all_procs()
        if proc.alive() and proc.shaddr is not None
    )
    stack = next(p for p in block.shared_vm.pregions if p.growth is Growth.DOWN)
    stack.vbase -= PAGE_SIZE  # a stack growth that skipped its re-key
    findings = check_pregion_index(sim)
    assert findings and "shared" in findings[0] and "keys" in findings[0]
    stack.vbase += PAGE_SIZE
    assert check_pregion_index(sim) == []


def test_fd_refcount_leak_detected():
    sim = _partial_fd_churn()
    file = next(
        slot
        for proc in sim.kernel.proc_table.all_procs()
        if proc.alive()
        for slot in proc.uarea.fdtable.slots
        if slot is not None
    )
    file.hold()  # a reference nothing reachable accounts for
    findings = check_fd_refcounts(sim)
    assert findings and "refcount" in findings[0]
    file.release()
    assert check_fd_refcounts(sim) == []


def _partial_yield_storm(scheduler="percpu"):
    """Compute/yield members frozen mid-flight with work queued."""

    def member(api, arg):
        for _ in range(4):
            yield from api.compute(5_000)
            yield from api.yield_cpu()
        return 0

    def main(api, arg):
        for _ in range(6):
            yield from api.sproc(member, PR_SALL)
        for _ in range(6):
            yield from api.wait()
        return 0

    sim = System(ncpus=2, scheduler=scheduler)
    sim.spawn(main)
    sim.run(max_events=60, check_deadlock=False)
    assert sim.kernel.sched.runnable_count >= 2
    assert check_runqueue_consistency(sim) == []
    return sim


def _queued_head(sched):
    """A per-CPU queue with a waiting proc, and that proc."""
    queue = next(queue for queue in sched._queues if len(queue))
    return queue, queue._heap[0][2]


def _kill_head_in_place(sched):
    # the head marked dead but left in the entry map: a remove that
    # skipped its bookkeeping
    queue, _proc = _queued_head(sched)
    queue._heap[0][3] = False


def _queue_twice(sched):
    queue, proc = _queued_head(sched)
    other = sched._queues[1 - queue.idx]
    other.push(proc, 10**9)


def _queued_but_sleeping(sched):
    _queue, proc = _queued_head(sched)
    proc.state = ProcState.SLEEPING


def _runnable_but_unqueued(sched):
    queue, proc = _queued_head(sched)
    queue.remove(proc)
    del sched._where[proc.pid]


def _busy_cpu_on_idle_list(sched):
    cpu = next(cpu for cpu in sched.machine.cpus if cpu.current is not None)
    sched._idle.append(cpu)


def _global_queue_twice(sched):
    sched._queue.append(sched._queue[0])


@pytest.mark.parametrize("scheduler, corrupt, expect", [
    ("percpu", _kill_head_in_place, "dead entry"),
    ("percpu", _queue_twice, "queued 2 times"),
    ("percpu", _queued_but_sleeping, "is sleeping but queued"),
    ("percpu", _runnable_but_unqueued, "on no run queue"),
    ("percpu", _busy_cpu_on_idle_list, "idle list"),
    ("global", _global_queue_twice, "queued 2 times"),
    ("global", _busy_cpu_on_idle_list, "idle list"),
])
def test_runqueue_corruption_detected(scheduler, corrupt, expect):
    sim = _partial_yield_storm(scheduler)
    corrupt(sim.kernel.sched)
    findings = check_runqueue_consistency(sim)
    assert any(expect in finding for finding in findings), findings
    assert any("runqueue-consistency" in f for f in run_invariants(sim))


def _partial_waits():
    """A parent frozen asleep in wait() while its members compute."""

    def member(api, arg):
        yield from api.compute(200_000)
        return 0

    def main(api, arg):
        for _ in range(2):
            yield from api.sproc(member, PR_SALL)
        for _ in range(2):
            yield from api.wait()
        return 0

    sim = System(ncpus=2)
    sim.spawn(main)
    sim.run(until=50_000, check_deadlock=False)
    assert check_semaphore_waiters(sim) == []
    return sim


def _sleeper(sim):
    return next(proc for proc in sim.kernel.proc_table.all_procs()
                if proc.alive() and proc.sleeping_on is not None)


def test_semaphore_waiter_corruption_detected():
    sim = _partial_waits()
    proc = _sleeper(sim)
    sema = proc.sleeping_on
    # a unit counted while a waiter sleeps: a v() that skipped the handoff
    sema._value = 1
    findings = check_semaphore_waiters(sim)
    assert findings == ["%s has value 1 and 1 waiters" % sema.name]
    assert any("semaphore-waiters" in f for f in run_invariants(sim))
    sema._value = 0
    # a sleeper no v() can reach: dropped from the queue, still asleep
    sema._waiters.remove(proc)
    findings = check_semaphore_waiters(sim)
    assert findings == ["pid %d sleeps on %s but is not on its waiters"
                        % (proc.pid, sema.name)]


# ----------------------------------------------------------------------
# explorer: pass, fail, reproduce, shrink


def test_default_scenarios_schedule_independent():
    report = explore(DEFAULT_SCENARIOS, nseeds=4)
    assert report.ok, report.render()
    assert report.runs == len(DEFAULT_SCENARIOS) * 5  # baseline + 4 seeds


def test_explorer_detects_lost_update_race():
    report = explore(["racy-counter"], nseeds=6)
    assert not report.ok
    assert report.failures, "lost updates must surface as divergence"
    assert all(failure.kind == "divergence" for failure in report.failures)
    rendered = report.render()
    assert "FAIL racy-counter" in rendered and "repro:" in rendered


def test_failure_reproduces_from_reported_seed():
    """The seed + shrunken feature set in the report is a real repro:
    running it again diverges from baseline the same way, twice."""
    report = explore(["racy-counter"], nseeds=6)
    failure = report.failures[0]
    assert failure.minimal_features, "shrink kept at least one feature"
    assert failure.minimal_features <= failure.features
    scenario = SCENARIOS["racy-counter"]
    baseline = run_once(scenario, seed=None)
    first = run_once(scenario, seed=failure.seed, features=failure.minimal_features)
    second = run_once(scenario, seed=failure.seed, features=failure.minimal_features)
    assert first.fingerprint == second.fingerprint, "seeded runs are deterministic"
    assert first.fingerprint != baseline.fingerprint, "the divergence is real"
    assert failure.repro_command().startswith("python -m repro.check")


def test_run_once_classifies_lost_wakeup_as_error():
    """A drained engine with blocked processes (the lost-wakeup shape)
    comes back as a classified error, not an unhandled exception."""

    def stuck(api, out):
        rfd, _wfd = yield from api.pipe()
        yield from api.read(rfd, 8)  # nobody will ever write
        return 0

    result = run_once(Scenario("stuck", stuck, 1, "blocks forever"))
    assert not result.ok
    assert result.error_kind == "DeadlockError"
    assert "blocked" in result.error


# ----------------------------------------------------------------------
# the CLI


def test_cli_list_and_smoke(capsys):
    assert check_cli.main(["--list"]) == 0
    listed = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in listed

    assert check_cli.main(["--seeds", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_detects_race_and_writes_report(tmp_path):
    path = tmp_path / "report.json"
    code = check_cli.main(
        ["--scenarios", "racy-counter", "--seeds", "3", "--report", str(path)]
    )
    assert code == 1
    report = json.loads(path.read_text())
    assert report["ok"] is False
    assert report["failures"]
    assert report["failures"][0]["repro"].startswith("python -m repro.check")


def test_cli_reproduce_mode(capsys):
    code = check_cli.main(
        ["--scenario", "racy-counter", "--seed", "0", "--features", "place"]
    )
    assert code == 0
    shown = capsys.readouterr().out
    assert "completed in" in shown and "count" in shown


def test_cli_rejects_unknown_scenario(capsys):
    assert check_cli.main(["--scenarios", "no-such-thing"]) == 2
    assert "unknown scenario" in capsys.readouterr().err

"""Inputs and simulated programs of the benchmark's three workloads.

Every input is generated from the workload seed and nothing else.

* ``server`` runs E17's three-tier server, whose programs live in
  ``repro.workloads.server``; this file only fixes its configuration:
  the quick topology (2 groups x 4 workers x 8 AIO, 4 CPUs), open loop
  at x0.30 of nominal capacity, below the x0.90 knee.
* ``group-churn``: share groups repeatedly ``sproc`` members and
  ``fork`` COW children; members ``mmap``/store/``munmap`` pages, change
  the shared umask and descriptor table, and one per round calls
  ``PR_UNSHARE``.  Every load is checked against the paper's sharing
  rules.  Closed loop: a member's next iteration follows its last.
* ``sched-storm``: many share groups whose members only compute and
  yield, E15's shape at a larger size.  Closed loop.

The sampler charges the frames of this file to the ``workloads`` layer.
"""

from __future__ import annotations

import random

from repro import O_CREAT, O_RDWR, PR_SADDR, PR_SALL, PR_SUMASK, PR_UNSHARE, status_code
from repro.workloads.server import ServerConfig

PAGE = 4096


# ----------------------------------------------------------------------
# server

#: E17's quick topology and its nominal capacity in requests per kcycle
SERVER_TOPOLOGY = dict(ngroups=2, nworkers=4, naio=8, batch=64, keyspace=128,
                       cache_capacity=112, nshards=4, npages=32)
SERVER_NCPUS = 4
SERVER_NOMINAL_PER_KCYCLE = 2.8

#: offered load as a multiple of nominal capacity: E17's x0.30 point, the
#: lowest of its sweep.  Nearer the x0.90 knee, queues on the two worker
#: groups build for long stretches and one instance's p99 moves by a
#: third (x0.45) to twice that (x0.75) from seed to seed
SERVER_RATE = 0.30


def server_config(seed: int, scale: float = 1.0) -> ServerConfig:
    """The server inputs: 72,000 requests in batches of 64 (1,125 batches)."""
    return ServerConfig(
        nrequests=int(72_000 * scale),
        rate_per_kcycle=SERVER_NOMINAL_PER_KCYCLE * SERVER_RATE,
        seed=seed,
        **SERVER_TOPOLOGY,
    )


# ----------------------------------------------------------------------
# group-churn

#: shared-page layout: one word per member slot, then the fd handoff word
_SLOTS = 16
_FD_SLOT = _SLOTS * 4

#: members per round, and pages each member iteration maps, stores to
#: and unmaps; fixed, so the per-op latency distribution keeps its shape
#: from seed to seed
CHURN_MEMBERS = 5
CHURN_PAGES = 2

#: the member that forks a COW child, and the one that unshares
_FORKER = 1
_UNSHARER = CHURN_MEMBERS - 1


class ChurnRound:
    """One round of a group: members sproc'd together, then checked."""

    def __init__(self, rng: random.Random, index: int):
        #: iterations per member
        self.iters = [rng.randint(5, 7) for _ in range(CHURN_MEMBERS)]
        #: value stream seed per member
        self.values = [rng.getrandbits(31) | 1 for _ in range(CHURN_MEMBERS)]
        self.umask = rng.choice((0o002, 0o007, 0o027, 0o077))
        self.path = "/churn-%d" % index


def churn_plan(seed: int, scale: float = 1.0):
    """The group-churn inputs: per group, a list of rounds."""
    rng = random.Random(seed)
    ngroups, nrounds = 4, max(1, int(32 * scale))
    return [[ChurnRound(rng, g * 1000 + r) for r in range(nrounds)]
            for g in range(ngroups)]


def _value(stream: int, it: int) -> int:
    """The word a member stores in iteration ``it``."""
    return (stream * (it + 7) + it) & 0x7FFFFFFF


def _cow_child(api, arg):
    """A forked child: sees the parent's image, then writes it privately."""
    slot, expected = arg
    seen = yield from api.load_word(slot)
    yield from api.store_word(slot, expected ^ 0x5A5A5A5A)
    return 0 if seen == expected else 1


def _churn_member(api, arg):
    ctx, rnd, m, base = arg
    latencies, failed = ctx["latencies"], ctx["failed"]
    slot = base + 4 * m
    stream = rnd.values[m]
    if m == 0:
        # shared umask and descriptor table: the leader must see both
        yield from api.umask(rnd.umask)
        fd = yield from api.open(rnd.path, O_CREAT | O_RDWR)
        yield from api.write(fd, stream.to_bytes(4, "little"))
        yield from api.store_word(base + _FD_SLOT, fd)
    for it in range(rnd.iters[m]):
        start = api.now
        ok = True
        value = _value(stream, it)
        if m == _UNSHARER and it == rnd.iters[m] - 1:
            # the last iteration runs detached: its writes stay private
            yield from api.prctl(PR_UNSHARE, PR_SADDR | PR_SUMASK)
            yield from api.umask(0o777)
            yield from api.store_word(slot, value ^ 0xFFFF)
            ok = (yield from api.load_word(slot)) == value ^ 0xFFFF
        else:
            yield from api.store_word(slot, value)
        pages = []
        for p in range(CHURN_PAGES):
            page = yield from api.mmap(PAGE)
            yield from api.store_word(page + 8 * p, value + p)
            pages.append(page)
        for p, page in enumerate(pages):
            ok &= (yield from api.load_word(page + 8 * p)) == value + p
            yield from api.munmap(page)
        if m == _FORKER and it == 0:
            yield from api.fork(_cow_child, (slot, value))
            _pid, status = yield from api.wait()
            ok &= status_code(status) == 0
            ok &= (yield from api.load_word(slot)) == value
        latencies.append((api.now - start, 1))
        if not ok:
            failed.append(1)
    return 0


def _churn_leader(api, arg):
    ctx, rounds = arg
    base = yield from api.mmap(PAGE)
    for rnd in rounds:
        yield from api.umask(0o022)
        for m in range(CHURN_MEMBERS):
            yield from api.sproc(_churn_member, PR_SALL, (ctx, rnd, m, base))
        for _ in range(CHURN_MEMBERS):
            yield from api.wait()
        ok = True
        # a store under PR_SADDR is visible to every member
        for m in range(CHURN_MEMBERS):
            last = _value(rnd.values[m], rnd.iters[m] - (m == _UNSHARER) - 1)
            ok &= (yield from api.load_word(base + 4 * m)) == last
        # member 0's umask reached us at a kernel entry; the unsharer's
        # private umask did not
        ok &= (yield from api.umask(0o022)) == rnd.umask
        # so did member 0's descriptor, through the shared table
        fd = yield from api.load_word(base + _FD_SLOT)
        yield from api.lseek(fd, 0)
        data = yield from api.read(fd, 4)
        ok &= data == rnd.values[0].to_bytes(4, "little")
        yield from api.close(fd)
        if not ok:
            ctx["failed_rounds"].append(sum(rnd.iters))
    return 0


def churn_root(api, ctx):
    for rounds in ctx["plan"]:
        yield from api.fork(_churn_leader, (ctx, rounds))
    for _ in ctx["plan"]:
        yield from api.wait()
    return 0


# ----------------------------------------------------------------------
# sched-storm


def storm_plan(seed: int, scale: float = 1.0):
    """The sched-storm inputs: per group, per member, its compute steps.

    16 groups x 6 members on 4 CPUs; the seed draws every step.
    """
    rng = random.Random(seed)
    rounds = max(1, int(1000 * scale))
    return [[[rng.randint(2_000, 12_000) for _ in range(rounds)] for _ in range(6)]
            for _ in range(16)]


def _storm_member(api, arg):
    ctx, steps = arg
    latencies = ctx["latencies"]
    for step in steps:
        start = api.now
        yield from api.compute(step)
        yield from api.yield_cpu()
        latencies.append((api.now - start, 1))
    return 0


def _storm_leader(api, arg):
    ctx, members = arg
    for steps in members:
        yield from api.sproc(_storm_member, PR_SALL, (ctx, steps))
    for _ in members:
        yield from api.wait()
    return 0


def storm_root(api, ctx):
    for members in ctx["plan"]:
        yield from api.fork(_storm_leader, (ctx, members))
    for _ in ctx["plan"]:
        yield from api.wait()
    return 0

"""Observability: kstat counters, lock-contention profiling, /proc text.

The instrumentation substrate every performance experiment measures
against.  Three layers, all host-side and all free of simulated cycles:

* :mod:`repro.obs.kstat` — named counters/gauges/histograms registered
  per-kernel, per-CPU, per-process, and per-share-group (the Solaris
  ``kstat`` idea);
* :mod:`repro.obs.lockstat` — acquisition/contention/hold accounting
  for every named kernel lock, with a top-N contended report;
* :mod:`repro.obs.lockdep` — lock-order/deadlock checking over the same
  primitives (off by default; ``System(lockdep=True)``);
* :mod:`repro.obs.procfs` — ``/proc``-style text tables rendered from a
  live :class:`~repro.system.System` (``System.report()``);
* :mod:`repro.obs.profile` — the host-side profiler: a statistical
  sampler that charges the simulator's own CPU time to the module it
  was spent in, plus the ``sim_cycles_per_host_sec`` speed metric (off
  by default; any ``--profile`` CLI flag opens a session).

Counters never charge cycles, so enabling or disabling them cannot move
a benchmark headline number — `tests/test_obs.py` holds this and the
determinism of collected values as invariants.
"""

from repro.obs.kstat import Histogram, KstatRegistry
from repro.obs.lockdep import NULL_LOCKDEP, LockDep, LockOrderViolation, lock_class
from repro.obs.lockstat import LockStat, LockStatRegistry
from repro.obs.procfs import render_system
from repro.obs.profile import (
    ProfileSession,
    active_session,
    begin_session,
    end_session,
    profiling,
)

__all__ = [
    "Histogram",
    "KstatRegistry",
    "LockDep",
    "LockOrderViolation",
    "LockStat",
    "LockStatRegistry",
    "NULL_LOCKDEP",
    "ProfileSession",
    "active_session",
    "begin_session",
    "end_session",
    "lock_class",
    "profiling",
    "render_system",
]

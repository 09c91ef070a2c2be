"""Module -> layer map and the statistical sampler behind the traced run.

Every module under ``src/repro`` belongs to exactly one layer (checked by
``test_perfbench.py``); frames from anywhere else are charged to
``host``, except the benchmark's own simulated programs in
``perfbench/programs.py``, which belong to ``workloads``.

The sampler arms ``signal.setitimer(ITIMER_PROF)`` and, on each tick,
walks the interrupted frame stack.  The innermost frame's layer gets the
sample as self time; every layer on the stack gets it as inclusive time.
Kernel paths are generators driven by ``send``, so wrapping functions
with timers would charge a suspended generator's caller for its work;
a stack walk at the interrupt sees the real running chain.
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: rules from a path relative to ``src/repro`` (a module, or a package
#: directory ending in ``/``) to its layer; each module matches one rule
LAYER_RULES: Dict[str, str] = {
    "sim/__init__.py": "sim.engine",
    "sim/engine.py": "sim.engine",
    "sim/cpu.py": "sim.cpu",
    "sim/effects.py": "sim.cpu",
    "sim/costs.py": "sim.cpu",
    "sim/tlb.py": "sim.tlb",
    "sim/machine.py": "sim.tlb",
    "sim/trace.py": "obs",
    "kernel/fault.py": "kernel.fault",
    "kernel/sched.py": "kernel.sched",
    "kernel/__init__.py": "kernel.syscalls",
    "kernel/syscalls.py": "kernel.syscalls",
    "kernel/kernel.py": "kernel.syscalls",
    "kernel/proc.py": "kernel.syscalls",
    "kernel/uarea.py": "kernel.syscalls",
    "kernel/signals.py": "kernel.syscalls",
    "kernel/usync.py": "kernel.syscalls",
    "kernel/flags.py": "kernel.syscalls",
    "kernel/proccalls.py": "kernel.proccalls",
    "kernel/filecalls.py": "kernel.filecalls",
    "mem/__init__.py": "mem.addrspace",
    "mem/addrspace.py": "mem.addrspace",
    "mem/layout.py": "mem.addrspace",
    "mem/vmindex.py": "mem.index",
    "mem/pregion.py": "mem.index",
    "mem/region.py": "mem.index",
    "mem/frames.py": "mem.frames",
    "share/": "share",
    "threads/": "share",
    "sync/": "sync",
    "fs/": "fs",
    "ipc/": "ipc",
    "runtime/": "runtime",
    "workloads/": "workloads",
    "bench/": "workloads",
    "obs/": "obs",
    "check/": "check",
    "inject/": "check",
    "__init__.py": "kernel.syscalls",
    "errors.py": "kernel.syscalls",
    "system.py": "kernel.syscalls",
}

LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.cpu", "sim.tlb", "kernel.fault", "kernel.sched",
    "kernel.syscalls", "kernel.proccalls", "kernel.filecalls",
    "mem.addrspace", "mem.index", "mem.frames", "share", "sync", "fs",
    "ipc", "runtime", "workloads", "obs", "check", "host",
)

#: layers whose self time is the simulated memory path
MEM_LAYERS = ("kernel.fault", "mem.addrspace", "mem.index", "mem.frames")

#: the sampler's tick, in seconds of process CPU time
TICK_S = 0.001

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_REPRO = os.path.join(os.path.dirname(HERE), "src", "repro")

#: benchmark files holding simulated programs rather than harness code
_PROGRAM_FILES = (os.path.join(HERE, "programs.py"),)


def rules_matching(relpath: str) -> List[str]:
    """Every rule that claims ``relpath`` (a path under ``src/repro``)."""
    return [
        rule for rule in LAYER_RULES
        if relpath == rule or (rule.endswith("/") and relpath.startswith(rule))
    ]


def layer_of_file(filename: str) -> str:
    """The layer a code object's ``co_filename`` belongs to."""
    path = os.path.abspath(filename)
    if path in _PROGRAM_FILES:
        return "workloads"
    if not path.startswith(SRC_REPRO + os.sep):
        return "host"
    rules = rules_matching(os.path.relpath(path, SRC_REPRO).replace(os.sep, "/"))
    return LAYER_RULES[rules[0]] if len(rules) == 1 else "host"


class Sampler:
    """CPU-time sampling profiler that charges samples to layers.

    Each tick charges the process CPU time since the previous tick, so
    the per-layer seconds stay right whatever the kernel's timer
    granularity makes of the requested tick.
    """

    def __init__(self):
        self.self_time: Counter = Counter()
        self.incl_time: Counter = Counter()
        self.samples = 0
        self._last = 0.0
        self._layer_cache: Dict[object, str] = {}

    def _layer(self, code) -> str:
        layer = self._layer_cache.get(code)
        if layer is None:
            layer = self._layer_cache[code] = layer_of_file(code.co_filename)
        return layer

    def _tick(self, signum, frame) -> None:
        now = time.process_time()
        elapsed, self._last = now - self._last, now
        if frame is None:
            return
        layer_of = self._layer
        self.samples += 1
        self.self_time[layer_of(frame.f_code)] += elapsed
        seen = set()
        while frame is not None:
            seen.add(layer_of(frame.f_code))
            frame = frame.f_back
        incl = self.incl_time
        for layer in seen:
            incl[layer] += elapsed

    @contextmanager
    def active(self):
        """Sample the enclosed block; the timer is always disarmed after."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def self_seconds(self) -> Dict[str, float]:
        """Sampled self time per layer; sums to :meth:`total_seconds`."""
        return {layer: self.self_time[layer] for layer in LAYERS}

    def incl_seconds(self) -> Dict[str, float]:
        return {layer: self.incl_time[layer] for layer in LAYERS}

    def total_seconds(self) -> float:
        return sum(self.self_time.values())


#: iterations of the reference loop
REF_ITERS = 500_000

#: the reference loop's median time on the host the benchmark was
#: defined on, when quiet (2-vCPU Xeon VM, Python 3.11.7); host timings
#: are reported at that speed
REF_S = 0.022


def reference_loop() -> None:
    """A fixed pure-Python loop, timed to follow the host's speed."""
    total = 0
    for i in range(REF_ITERS):
        total += i


class Spans:
    """Host-time spans around the benchmark's own calls into the library.

    Each span is ``(name, start, end)``.  Spans are flat: the benchmark
    never nests them.  ``ref`` spans time :func:`reference_loop` between
    the others, to tell how fast the host ran them.
    """

    NAMES = ("inputs", "system", "spawn", "run", "metrics", "invariants", "audit")

    def __init__(self):
        self.records: List[Tuple[str, float, float]] = []
        self._open: Optional[Tuple[str, float]] = None

    def begin(self, name: str) -> None:
        self._open = (name, time.perf_counter())

    def end(self) -> None:
        """Close the open span."""
        name, start = self._open
        self.records.append((name, start, time.perf_counter()))
        self._open = None

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def reference(self) -> None:
        with self.span("ref"):
            reference_loop()

    def seconds(self, name: str) -> float:
        return sum(stop - start for n, start, stop in self.records if n == name)

"""Host-side profiler: where does the *simulator's* own time go?

Every other observability layer measures the simulated machine; this one
measures the simulator.  It is a statistical sampler.  While a
:class:`ProfileSession` is open, ``signal.setitimer(ITIMER_PROF)`` ticks
every :data:`TICK_S` of process CPU time, and each tick charges the CPU
time since the previous tick to the *layer* of the interrupted frame.  A
layer is the frame's module path under ``src/repro`` in dotted form
(``kernel/fault.py`` is ``kernel.fault``, a package's ``__init__`` is
the package); frames from anywhere else count as ``host``.  Nothing in
the simulated machine knows the profiler exists, so a profiled run is
cycle-identical to an unprofiled one (``tests/test_profile.py``) and an
unprofiled run pays nothing for it.

Run accounting is the one explicit hook: ``System.run`` adds its
``perf_counter`` wall time and its deltas of simulated cycles, engine
events and inline-continuation hops/fallbacks to the active session.
The headline ``sim_cycles_per_host_sec`` divides the two.

Sessions nest.  ``--profile`` on ``repro.bench`` and ``repro.check``
opens one, and every seed-sweep shard opens its own.  Ticks and runs go
to the innermost open session only; an enclosing session takes an inner
one's numbers with :meth:`ProfileSession.absorb`, exactly as it takes
the summaries that ``multiprocessing`` shards ship back, so nothing is
counted twice.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: the sampler's tick, in seconds of process CPU time
TICK_S = 0.001

_SRC_REPRO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer_of(filename: str) -> str:
    """The layer of a code object's ``co_filename``."""
    path = os.path.abspath(filename)
    if not (path.startswith(_SRC_REPRO + os.sep) and path.endswith(".py")):
        return "host"
    parts = os.path.relpath(path[:-3], _SRC_REPRO).split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or "repro"


class ProfileSession:
    """Sampled layer time and ``System.run`` accounting for one stretch.

    ``wall_seconds`` sums the runs' wall times; once shards are absorbed
    it is host-CPU seconds (shards overlap in wall clock), the right
    denominator for a machine-speed metric.
    """

    def __init__(self):
        self.layers: Dict[str, Dict[str, float]] = {}  #: {self_s, samples}
        self.counters: Dict[str, int] = {
            "inline_hops": 0, "inline_fallbacks": 0,
        }
        self.wall_seconds = 0.0
        self.sim_cycles = 0
        self.events = 0
        self.runs = 0

    def _layer_row(self, name: str) -> Dict[str, float]:
        row = self.layers.get(name)
        if row is None:
            row = self.layers[name] = {"self_s": 0.0, "samples": 0}
        return row

    @contextmanager
    def measure(self, engine) -> Iterator[None]:
        """Charge the ``engine.run`` call inside the block to this session."""
        cycles, events = engine.now, engine.events_processed
        hops, fallbacks = engine.inline_hops, engine.inline_fallbacks
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_seconds += time.perf_counter() - start
            self.runs += 1
            self.sim_cycles += engine.now - cycles
            self.events += engine.events_processed - events
            self.counters["inline_hops"] += engine.inline_hops - hops
            self.counters["inline_fallbacks"] += (
                engine.inline_fallbacks - fallbacks
            )

    def absorb(self, summary: dict) -> None:
        """Fold in a :meth:`summary` from a nested session or a shard."""
        for name, row in summary.get("layers", {}).items():
            slot = self._layer_row(name)
            slot["self_s"] += row["self_s"]
            slot["samples"] += row["samples"]
        for name, value in summary.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.wall_seconds += summary.get("wall_seconds", 0.0)
        self.sim_cycles += summary.get("sim_cycles", 0)
        self.events += summary.get("events", 0)
        self.runs += summary.get("runs", 0)

    def summary(self) -> dict:
        """One JSON-serialisable dict: layers, runs, cycles, the rate."""
        wall = self.wall_seconds
        return {
            "layers": {name: dict(self.layers[name])
                       for name in sorted(self.layers)},
            "counters": dict(sorted(self.counters.items())),
            "wall_seconds": wall,
            "sim_cycles": self.sim_cycles,
            "events": self.events,
            "runs": self.runs,
            "sim_cycles_per_host_sec": (
                self.sim_cycles / wall if wall > 0 else 0.0),
        }

    def render(self) -> str:
        """The per-layer host-time table, largest self time first."""
        layers = self.layers
        sampled = sum(row["self_s"] for row in layers.values())
        samples = sum(row["samples"] for row in layers.values())
        lines = [
            "HOST PROFILE (%s samples, %.3f host-s sampled; %d run(s), "
            "%.3f host-s inside System.run)"
            % ("{:,}".format(samples), sampled, self.runs, self.wall_seconds),
            "%-24s %10s %10s %8s" % ("layer", "self-s", "samples", "share"),
            "-" * 55,
        ]
        for name in sorted(layers, key=lambda n: (-layers[n]["self_s"], n)):
            row = layers[name]
            share = row["self_s"] / sampled if sampled > 0 else 0.0
            lines.append(
                "%-24s %10.3f %10s %7.1f%%"
                % (name, row["self_s"], "{:,}".format(row["samples"]),
                   100.0 * share)
            )
        hops = self.counters.get("inline_hops", 0)
        fallbacks = self.counters.get("inline_fallbacks", 0)
        if hops or fallbacks:
            lines.append(
                "inline hit rate: %.1f%% (%s hops, %s fallbacks, "
                "%s queued events)"
                % (100.0 * hops / max(1, self.events),
                   "{:,}".format(hops), "{:,}".format(fallbacks),
                   "{:,}".format(self.events - hops))
            )
        wall = self.wall_seconds
        lines.append(
            "sim cycles %s in %.3f host-s -> %s cycles/host-sec "
            "(%s events)"
            % ("{:,}".format(self.sim_cycles), wall,
               "{:,.0f}".format(self.sim_cycles / wall if wall > 0 else 0.0),
               "{:,}".format(self.events))
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the process-wide sampler

_stack: List[ProfileSession] = []  #: open sessions, innermost last
_layer_cache: Dict[str, str] = {}  #: co_filename -> layer
_last = 0.0  #: process CPU time at the previous tick
_previous_handler: Any = None  #: the SIGPROF handler to restore


def _tick(signum, frame) -> None:
    global _last
    now = time.process_time()
    elapsed, _last = now - _last, now
    if frame is None or not _stack:
        return
    filename = frame.f_code.co_filename
    layer = _layer_cache.get(filename)
    if layer is None:
        layer = _layer_cache[filename] = layer_of(filename)
    row = _stack[-1]._layer_row(layer)
    row["self_s"] += elapsed
    row["samples"] += 1


def _forget_inherited_sessions() -> None:
    # a forked child has no timer; its parent's sessions are not its own
    _stack.clear()


os.register_at_fork(after_in_child=_forget_inherited_sessions)


def begin_session() -> ProfileSession:
    """Open a session nested in the active one and make it active.

    The outermost session arms the sampler; until :func:`end_session`
    every tick and every ``System.run`` is charged to the new session.
    """
    global _last, _previous_handler
    session = ProfileSession()
    if not _stack:
        _previous_handler = signal.signal(signal.SIGPROF, _tick)
        _last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
    _stack.append(session)
    return session


def end_session() -> Optional[ProfileSession]:
    """Close the innermost session; the enclosing one is active again."""
    if not _stack:
        return None
    session = _stack.pop()
    if not _stack:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # None: the previous handler was not installed from Python
        signal.signal(signal.SIGPROF, _previous_handler or signal.SIG_DFL)
    return session


def active_session() -> Optional[ProfileSession]:
    return _stack[-1] if _stack else None


@contextmanager
def profiling(enabled: bool = True) -> Iterator[Optional[ProfileSession]]:
    """A nested session around the block; ``None`` when not ``enabled``."""
    if not enabled:
        yield None
        return
    session = begin_session()
    try:
        yield session
    finally:
        end_session()

"""The host profiler: layer mapping, sessions, the CLIs, cycle-identity."""

import json
import os

import pytest

import repro
from repro import PR_SALL, System
from repro.obs.profile import (
    ProfileSession,
    active_session,
    begin_session,
    end_session,
    layer_of,
    profiling,
)
from repro.sim.engine import ENGINE_LOOP_MODES

SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))


def _valid_layers():
    """Every layer name a sample may carry: one per module, plus host."""
    layers = {"host"}
    for root, _, files in os.walk(SRC_REPRO):
        for name in files:
            if name.endswith(".py"):
                layers.add(layer_of(os.path.join(root, name)))
    return layers


def _workload(api, ctx):
    ctx.setdefault("pids", [])
    for _ in range(3):
        pid = yield from api.sproc(_member, PR_SALL)
        ctx["pids"].append(pid)
    for _ in range(3):
        yield from api.wait()
    return 0


def _member(api, arg):
    yield from api.compute(5_000)
    base = yield from api.sbrk(4096)
    yield from api.store_word(base, 1)
    yield from api.load_word(base)
    return 0


def _busy_member(api, arg):
    base = yield from api.sbrk(16 * 4096)
    for i in range(2000):
        yield from api.store_word(base + 4 * (i % 4096), i)
        yield from api.load_word(base + 4 * (i % 4096))
    return 0


def _busy_workload(api, ctx):
    for _ in range(6):
        yield from api.sproc(_busy_member, PR_SALL)
    for _ in range(6):
        yield from api.wait()
    return 0


# ----------------------------------------------------------------------
# layers are module paths under src/repro


def test_layer_of_maps_module_paths():
    assert layer_of(os.path.join(SRC_REPRO, "kernel", "fault.py")) == (
        "kernel.fault")
    assert layer_of(os.path.join(SRC_REPRO, "sim", "engine.py")) == (
        "sim.engine")
    # a package __init__ is the package
    assert layer_of(os.path.join(SRC_REPRO, "mem", "__init__.py")) == "mem"
    # anything outside src/repro is host
    assert layer_of(os.__file__) == "host"
    assert layer_of(__file__) == "host"
    assert layer_of("<string>") == "host"


# ----------------------------------------------------------------------
# sessions merge, absorb and render


def _summary(**fields):
    base = {
        "layers": {},
        "counters": {"inline_hops": 0, "inline_fallbacks": 0},
        "wall_seconds": 0.0,
        "sim_cycles": 0,
        "events": 0,
        "runs": 0,
    }
    base.update(fields)
    return base


def test_session_merges_profilers_and_absorbed_summaries():
    session = ProfileSession()
    session.absorb(_summary(
        layers={"sim.cpu": {"self_s": 1.0, "samples": 250}},
        wall_seconds=1.0, sim_cycles=1000, events=10, runs=1,
    ))
    session.absorb(_summary(
        layers={"sim.cpu": {"self_s": 2.0, "samples": 500},
                "kernel.fault": {"self_s": 0.5, "samples": 125}},
        wall_seconds=2.0, sim_cycles=4000, events=40, runs=3,
    ))
    merged = session.summary()
    assert merged["runs"] == 4
    assert merged["sim_cycles"] == 5000
    assert merged["events"] == 50
    assert merged["layers"] == {
        "kernel.fault": {"self_s": 0.5, "samples": 125},
        "sim.cpu": {"self_s": 3.0, "samples": 750},
    }
    assert merged["sim_cycles_per_host_sec"] == 5000 / 3.0
    # a summary round-trips through JSON and absorbs into a fresh session
    again = ProfileSession()
    again.absorb(json.loads(json.dumps(merged)))
    assert again.summary() == merged
    text = session.render()
    assert text.index("sim.cpu") < text.index("kernel.fault")
    assert "cycles/host-sec" in text


def test_session_merges_counters_and_renders_hit_rate():
    session = ProfileSession()
    session.absorb(_summary(
        counters={"inline_hops": 60, "inline_fallbacks": 5},
        events=100, runs=1, sim_cycles=1000, wall_seconds=1.0,
    ))
    session.absorb(_summary(
        counters={"inline_hops": 20, "inline_fallbacks": 0},
        events=100, runs=1, sim_cycles=500, wall_seconds=1.0,
    ))
    assert session.summary()["counters"] == {
        "inline_fallbacks": 5, "inline_hops": 80,
    }
    text = session.render()
    # 80 hops of 200 events
    assert "inline hit rate: 40.0% (80 hops, 5 fallbacks" in text


def test_begin_end_session_arm_systems_built_meanwhile():
    assert active_session() is None
    outer = begin_session()
    try:
        inner = begin_session()
        try:
            assert active_session() is inner
            sim = System(ncpus=1)
            sim.spawn(_member, 0)
            sim.run()
        finally:
            assert end_session() is inner
        # the enclosing session is active again, and the run went to the
        # innermost session only
        assert active_session() is outer
        assert inner.runs == 1 and inner.sim_cycles == sim.now
        assert outer.runs == 0
    finally:
        assert end_session() is outer
    assert active_session() is None
    assert end_session() is None
    # outside a session System.run charges nobody
    sim = System(ncpus=1)
    sim.spawn(_member, 0)
    sim.run()
    assert outer.runs == 0


def test_profiling_context_closes_its_session_on_error():
    with pytest.raises(RuntimeError):
        with profiling() as session:
            assert active_session() is session
            raise RuntimeError("boom")
    assert active_session() is None
    with profiling(False) as session:
        assert session is None
        assert active_session() is None


# ----------------------------------------------------------------------
# System.run is the one accounting hook


def test_run_bracketing_accumulates_cycles_and_rate():
    with profiling() as session:
        sim = System(ncpus=2)
        sim.spawn(_workload, {})
        first = sim.run(until=20_000)
        sim.run()
    assert session.runs == 2
    assert session.sim_cycles == sim.now
    assert 0 < first < sim.now
    assert session.events == sim.engine.events_processed
    assert session.wall_seconds > 0.0
    summary = session.summary()
    assert summary["sim_cycles_per_host_sec"] == (
        sim.now / session.wall_seconds)


def test_engine_inline_counters_reach_the_profiler():
    with profiling() as session:
        sim = System(ncpus=2, engine_loop="fast")
        sim.spawn(_workload, {})
        sim.run()
    assert sim.engine.inline_hops > 0
    assert session.counters == {
        "inline_hops": sim.engine.inline_hops,
        "inline_fallbacks": sim.engine.inline_fallbacks,
    }


def test_profiled_run_samples_only_valid_layers():
    with profiling() as session:
        sim = System(ncpus=4)
        sim.spawn(_busy_workload, {})
        sim.run()
    summary = session.summary()
    assert summary["runs"] == 1
    assert summary["sim_cycles"] == sim.now
    samples = sum(row["samples"] for row in summary["layers"].values())
    assert samples > 0
    assert set(summary["layers"]) <= _valid_layers()
    assert all(row["self_s"] >= 0.0 for row in summary["layers"].values())


# ----------------------------------------------------------------------
# the load-bearing invariant: profiling cannot move the simulation


def test_profiled_run_is_cycle_identical_to_disarmed():
    def run(loop):
        sim = System(ncpus=2, engine_loop=loop)
        sim.spawn(_workload, {})
        sim.run()
        return sim.now, sim.kstat.snapshot()

    for loop in ENGINE_LOOP_MODES:
        off = run(loop)
        with profiling() as session:
            on = run(loop)
        assert on == off, loop
        assert session.sim_cycles == on[0]


# ----------------------------------------------------------------------
# the two --profile flags


@pytest.fixture
def bench_main(tmp_path, monkeypatch):
    import gc

    from repro.bench.__main__ import main

    # the CLI turns the collector off for its own short-lived process
    monkeypatch.setattr(gc, "disable", lambda: None)
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return lambda *argv: main(["repro.bench", *argv])


def test_bench_cli_profile_writes_host_json(bench_main, tmp_path, capsys):
    assert bench_main("e1", "--profile") == 0
    with open(tmp_path / "BENCH_HOST.json") as handle:
        host = json.load(handle)
    for key in ("sim_cycles_per_host_sec", "wall_seconds", "sim_cycles",
                "events", "runs", "layers"):
        assert key in host, key
    assert set(host["counters"]) == {"inline_hops", "inline_fallbacks"}
    assert host["runs"] > 0 and host["sim_cycles"] > 0
    assert host["sim_cycles_per_host_sec"] > 0
    assert set(host["layers"]) <= _valid_layers()
    assert "HOST PROFILE" in capsys.readouterr().out
    assert active_session() is None


def test_bench_cli_trend_entries_sum_to_host_total(bench_main, tmp_path):
    # each run is counted exactly once in the host totals across experiments
    def sim_cycles(*eids):
        assert bench_main(*eids, "--profile") == 0
        with open(tmp_path / "BENCH_HOST.json") as handle:
            return json.load(handle)["sim_cycles"]

    per_experiment = [sim_cycles("e1"), sim_cycles("e2")]
    assert all(per_experiment)
    assert sim_cycles("e1", "e2") == sum(per_experiment)


def test_check_cli_profile_prints_layer_table(capsys):
    from repro.check.__main__ import main

    assert main(["--seeds", "1", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "HOST PROFILE" in out
    assert "layer" in out and "cycles/host-sec" in out
    assert active_session() is None

"""The statistical claims harness: bootstrap CIs, sweeps, gating."""

import importlib.util
import json
import os
import random

import pytest

from repro.bench.harness import ExperimentResult
from repro.bench.stats import (
    bootstrap_ci,
    extract_metrics,
    run_sweep,
    summarize,
)


# ----------------------------------------------------------------------
# the bootstrap


def test_bootstrap_ci_is_seed_deterministic_and_ordered():
    values = [10.0, 12.0, 9.0, 11.0, 13.0, 10.5]
    lo1, hi1 = bootstrap_ci(values, seed=0)
    lo2, hi2 = bootstrap_ci(values, seed=0)
    assert (lo1, hi1) == (lo2, hi2)
    assert lo1 <= sum(values) / len(values) <= hi1
    assert min(values) <= lo1 <= hi1 <= max(values)


def test_bootstrap_ci_degenerate_inputs():
    assert bootstrap_ci([]) == (0.0, 0.0)
    assert bootstrap_ci([7.0]) == (7.0, 7.0)
    # identical samples -> zero-width interval
    lo, hi = bootstrap_ci([5.0] * 8)
    assert lo == hi == 5.0


def test_summarize_shape():
    stat = summarize([1.0, 2.0, 3.0])
    assert stat["n"] == 3
    assert stat["mean"] == 2.0
    assert stat["min"] == 1.0 and stat["max"] == 3.0
    assert stat["ci_lo"] <= stat["mean"] <= stat["ci_hi"]
    assert stat["values"] == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# metric extraction


def test_extract_metrics_takes_numeric_columns_keyed_by_first():
    result = ExperimentResult("EX", "t", ["mode", "cycles", "label", "ratio"])
    result.add_row(mode="fast", cycles=100, label="x", ratio=1.5)
    result.add_row(mode="slow", cycles=300, label="y", ratio=4.5)
    metrics = extract_metrics(result)
    assert metrics == {
        "fast": {"cycles": 100.0, "ratio": 1.5},
        "slow": {"cycles": 300.0, "ratio": 4.5},
    }


def test_experiment_result_json_includes_stats_when_attached(tmp_path):
    result = ExperimentResult("EX", "t", ["mode", "cycles"])
    result.add_row(mode="fast", cycles=100)
    assert "stats" not in result.to_json_dict()
    result.stats = {"fast": {"cycles": summarize([100.0, 102.0])}}
    doc = json.loads(json.dumps(result.to_json_dict()))
    assert doc["stats"]["fast"]["cycles"]["n"] == 2


# ----------------------------------------------------------------------
# the sweep (serial path; the Pool path differs only in transport)


def test_sweep_serial_collects_per_seed_samples_and_cis():
    sweep = run_sweep("e15", nseeds=2, jobs=1, rounds=4)
    assert sweep.failed_claims == []
    samples = sweep.samples()
    assert set(samples) == {"global", "percpu"}
    assert len(samples["percpu"]["makespan_cycles"]) == 2
    stats = sweep.stats(n_resamples=200)
    stat = stats["percpu"]["makespan_cycles"]
    assert stat["n"] == 2
    assert stat["ci_lo"] <= stat["mean"] <= stat["ci_hi"]
    assert "makespan_cycles" in sweep.render()


def test_sweep_same_seed_reproduces_identical_metrics():
    one = run_sweep("e15", nseeds=1, jobs=1, rounds=4)
    two = run_sweep("e15", nseeds=1, jobs=1, rounds=4)
    assert one.runs[0]["metrics"] == two.runs[0]["metrics"]


def test_sweep_profiled_ships_host_summaries():
    sweep = run_sweep("e15", nseeds=1, jobs=1, profiled=True, rounds=4)
    host = sweep.host_summary()
    assert host is not None
    assert host["sim_cycles"] > 0
    assert host["runs"] > 0
    assert "layers" in host
    # and the session did not leak into later Systems
    from repro.obs.profile import active_session

    assert active_session() is None


def test_in_process_sweep_keeps_the_enclosing_session():
    from repro.obs.profile import ProfileSession, active_session, profiling

    with profiling() as outer:
        sweep = run_sweep("e15", nseeds=2, jobs=1, profiled=True, rounds=4)
        # the shards' nested sessions closed without closing this one
        assert active_session() is outer
        assert outer.runs == 0 and outer.sim_cycles == 0
        shards = [run["host"] for run in sweep.runs]
        assert all(shard["runs"] > 0 for shard in shards)
        outer.absorb(sweep.host_summary())
    expected = ProfileSession()
    for shard in shards:
        expected.absorb(shard)
    # each shard counted exactly once
    assert outer.runs == expected.runs
    assert outer.sim_cycles == expected.sim_cycles
    assert outer.events == expected.events
    assert active_session() is None


# ----------------------------------------------------------------------
# the CI-overlap gate in benchmarks/compare_bench.py


def _load_script(name):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "benchmarks", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_json(tmp_path, name, value, ci, with_stats=True):
    doc = {
        "experiment": "E15",
        "columns": ["scheduler", "scan_per_pick"],
        "rows": [{"scheduler": "percpu", "scan_per_pick": value}],
    }
    if with_stats:
        doc["stats"] = {
            "percpu": {
                "scan_per_pick": {
                    "mean": value, "ci_lo": ci[0], "ci_hi": ci[1], "n": 10,
                }
            }
        }
    path = str(tmp_path / name)
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


@pytest.mark.parametrize(
    "base_ci,cand_ci,cand,expected",
    [
        # overlapping CIs: not a resolved regression
        ((4.0, 5.0), (4.8, 6.0), 5.4, 0),
        # candidate CI entirely above baseline CI: regression
        ((4.0, 5.0), (5.1, 6.0), 5.5, 1),
        # candidate improved: fine
        ((4.0, 5.0), (3.0, 3.9), 3.5, 0),
    ],
)
def test_compare_bench_gates_on_ci_overlap(tmp_path, base_ci, cand_ci,
                                           cand, expected, capsys):
    compare_bench = _load_script("compare_bench")
    prev = _bench_json(tmp_path, "prev.json", sum(base_ci) / 2, base_ci)
    cur = _bench_json(tmp_path, "cur.json", cand, cand_ci)
    code = compare_bench.main([
        "--previous", prev, "--current", cur,
        "--key", "scheduler", "--gate", "percpu",
        "--metric", "scan_per_pick",
    ])
    out = capsys.readouterr().out
    assert code == expected
    assert "CI overlap" in out
    if expected:
        assert "REGRESSION" in out
        assert "scan_per_pick" in out  # the delta table names the metric


def test_compare_bench_falls_back_to_threshold_without_stats(tmp_path, capsys):
    compare_bench = _load_script("compare_bench")
    prev = _bench_json(tmp_path, "prev.json", 4.0, (0, 0), with_stats=False)
    cur = _bench_json(tmp_path, "cur.json", 5.5, (0, 0), with_stats=False)
    code = compare_bench.main([
        "--previous", prev, "--current", cur,
        "--key", "scheduler", "--gate", "percpu",
        "--metric", "scan_per_pick", "--threshold", "0.25",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "threshold" in out


# ----------------------------------------------------------------------
# the same-runner host A/B gate in benchmarks/host_ab.py


def _perfbench_result(ops, cycles, failed=0, correct=True, p99=5000.0):
    """One parsed ``perfbench/run.py`` result line."""
    return {
        "correct": correct,
        "attempted": 1000,
        "failed": failed,
        "metrics": {
            "ops_per_host_s": {"value": ops, "unit": "ops/s"},
            "sim_cycles_per_host_s": {"value": cycles, "unit": "cycles/s"},
            "success_ratio": {"value": (1000 - failed) / 1000, "unit": "fraction"},
            "sim_makespan_cycles": {"value": 1e6, "unit": "cycles"},
            "sim_p99_cycles": {"value": p99, "unit": "cycles"},
        },
    }


def _noisy_side(rng, scale, pairs):
    """``pairs`` results at ``scale`` of a nominal speed, each off by up
    to 3% either way."""
    runs = []
    for _ in range(pairs):
        factor = scale * (1.0 + rng.uniform(-0.03, 0.03))
        runs.append(_perfbench_result(2e4 * factor, 2e7 * factor))
    return runs


def test_host_ab_identical_samples_pass():
    host_ab = _load_script("host_ab")
    rng = random.Random(1)
    runs = _noisy_side(rng, 1.0, host_ab.PAIRS)
    lines, failures = host_ab.decide("server", runs, runs)
    assert failures == []
    assert not any("differs" in line for line in lines)
    # the same code measured twice: independent noise on each side
    for seed in range(10):
        rng = random.Random(seed)
        base = _noisy_side(rng, 1.0, host_ab.PAIRS)
        head = _noisy_side(rng, 1.0, host_ab.PAIRS)
        lines, failures = host_ab.decide("server", base, head)
        assert failures == [], seed
        # sim_cycles_per_host_s is a host rate, not a simulated quantity
        assert not any("differs" in line for line in lines), lines


def test_host_ab_ten_percent_slowdown_fails_on_the_ci():
    host_ab = _load_script("host_ab")
    for seed in range(10):
        rng = random.Random(seed)
        base = _noisy_side(rng, 1.0, host_ab.PAIRS)
        head = _noisy_side(rng, 0.9, host_ab.PAIRS)
        _lines, failures = host_ab.decide("sched-storm", base, head)
        # both rates, on the CI rule, and not on the floor
        assert len(failures) == 2, (seed, failures)
        assert all("CI upper end" in failure for failure in failures)


def test_host_ab_median_ratio_below_the_floor_fails():
    host_ab = _load_script("host_ab")
    base = [_perfbench_result(2e4, 2e7)] * host_ab.PAIRS
    head = [_perfbench_result(1.2e4, 1.2e7)] * host_ab.PAIRS  # ratio 0.6
    _lines, failures = host_ab.decide("server", base, head)
    assert any("below the floor 0.65" in failure for failure in failures)


@pytest.mark.parametrize("fields, expect", [
    ({"failed": 3}, "failed share"),
    ({"correct": False}, "correct: false"),
])
def test_host_ab_head_failures_fail(fields, expect):
    host_ab = _load_script("host_ab")
    base = [_perfbench_result(2e4, 2e7)] * host_ab.PAIRS
    head = [_perfbench_result(2e4, 2e7, **fields)] * host_ab.PAIRS
    _lines, failures = host_ab.decide("group-churn", base, head)
    assert len(failures) == 1 and expect in failures[0], failures


def test_host_ab_sim_difference_is_reported_not_failed():
    host_ab = _load_script("host_ab")
    base = [_perfbench_result(2e4, 2e7)] * host_ab.PAIRS
    head = [_perfbench_result(2e4, 2e7, p99=5100.0)] * host_ab.PAIRS
    lines, failures = host_ab.decide("server", base, head)
    assert failures == []
    moved = [line for line in lines if "differs" in line]
    assert len(moved) == 1 and "sim_p99_cycles" in moved[0]
    assert "5000.0" in moved[0] and "5100.0" in moved[0]

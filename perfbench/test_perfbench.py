"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run the workloads at a reduced size.  The repository's test suite
(``tests/``) does not collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import measure  # noqa: E402
import programs  # noqa: E402
from repro import PR_SADDR, PR_SALL, PR_SFDS, PR_SUMASK  # noqa: E402

#: per-workload reduced sizes: a few hundred batches, rounds or ops
SMALL = {"server": 0.06, "group-churn": 0.15, "sched-storm": 0.03}
WORKLOADS = sorted(SMALL)


def small_rep(workload, seed=1, **kwargs):
    return measure.run_rep(workload, seed, scale=SMALL[workload], **kwargs)


def test_every_module_maps_to_exactly_one_layer():
    seen_rules = set()
    for dirpath, _dirs, files in os.walk(layers.SRC_REPRO):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, layers.SRC_REPRO).replace(os.sep, "/")
            rules = layers.rules_matching(rel)
            assert len(rules) == 1, "%s matches %s" % (rel, rules)
            seen_rules.update(rules)
            layer = layers.layer_of_file(path)
            assert layer in layers.LAYERS and layer != "host", rel
    assert seen_rules == set(layers.LAYER_RULES), "stale rules: %s" % (
        set(layers.LAYER_RULES) - seen_rules)
    assert set(layers.LAYER_RULES.values()) == set(layers.LAYERS) - {"host"}


def test_benchmark_files_map_to_workloads_and_host():
    assert layers.layer_of_file(os.path.join(HERE, "programs.py")) == "workloads"
    assert layers.layer_of_file(os.path.join(HERE, "harness.py")) == "host"
    assert layers.layer_of_file(json.__file__) == "host"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digest(workload):
    first, second = small_rep(workload), small_rep(workload)
    assert first.failed == 0 and first.findings == []
    assert first.digest == second.digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_give_different_digests(workload):
    assert small_rep(workload, seed=1).digest != small_rep(workload, seed=2).digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_equals_untraced(workload):
    sampler = layers.Sampler()
    traced = small_rep(workload, sampler=sampler)
    # the untraced run is sliced by run(max_events=...); the traced one
    # is a single run() call
    assert traced.digest == small_rep(workload).digest
    # self times partition the sampled time
    assert sampler.samples > 0
    assert sum(sampler.self_seconds().values()) == pytest.approx(
        sampler.total_seconds())
    # every sample's stack holds the benchmark's own frames
    assert sampler.incl_seconds()["host"] == pytest.approx(sampler.total_seconds())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_engine_loop_equals_naive_oracle(workload):
    fast = small_rep(workload)
    naive = small_rep(workload, engine_loop="naive")
    assert naive.failed == 0
    assert fast.digest == naive.digest


@pytest.mark.parametrize("dropped", [PR_SADDR, PR_SUMASK, PR_SFDS])
def test_group_churn_checks_catch_missing_sharing(monkeypatch, dropped):
    """Members sproc'd without one resource's share bit break the rule
    the leader checks for that resource, so ops fail."""
    monkeypatch.setattr(programs, "PR_SALL", PR_SALL & ~dropped)
    assert small_rep("group-churn").failed > 0


#: sizes for the role predictions: enough samples for shares of a few
#: percent, and sched-storm at full size, where its fixed set-up work
#: (sproc'ing 96 members) is the smallest share
ROLE_SCALE = {"server": 0.25, "group-churn": 0.5, "sched-storm": 1.0}


def _self_pct(workload, counts):
    sampler = layers.Sampler()
    measure.run_rep(workload, 1, scale=ROLE_SCALE[workload], sampler=sampler,
                    on_outcome=lambda outcome: counts.update(
                        measure.layer_counts(outcome)))
    total = sampler.total_seconds()
    return {layer: 100.0 * secs / total
            for layer, secs in sampler.self_seconds().items()}


def test_role_predictions():
    """Written before measuring: the memory path is idle on sched-storm,
    a large share of the server, and larger still on group-churn's
    address-space churn."""
    storm_counts, server_counts, churn_counts = {}, {}, {}
    storm = _self_pct("sched-storm", storm_counts)
    server = _self_pct("server", server_counts)
    churn = _self_pct("group-churn", churn_counts)
    assert sum(storm[layer] for layer in layers.MEM_LAYERS) < 2.0
    assert storm_counts["fault.total"][0] == 0
    assert sum(server[layer] for layer in layers.MEM_LAYERS) > 20.0
    index_share = ("mem.index", "mem.addrspace")
    assert (sum(churn[layer] for layer in index_share)
            > sum(server[layer] for layer in index_share))
    assert churn_counts["share.unshares"][0] > 0
    assert server_counts["runtime.cache_accesses"][0] > 0


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_declared_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sched-storm",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)[kind]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_cli_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "server", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

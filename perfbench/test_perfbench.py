"""Tests of the benchmark itself: determinism, tracing, output contract.

Run from the repository root with ``python -m pytest perfbench -q``.
The workloads are cut to one short session so the suite stays quick;
determinism of one session is what makes the fixed sessions of a full
run a pure function of the seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-workload overrides that keep one session small.
SMALL = {
    "serve_htap": {"arrivals_per_session": 300, "ladder_qps": (60_000.0, 150_000.0)},
    "sharded_failover": {"ops_per_session": 12, "rebalance_every": 6},
    "engine_durable": {
        "rows": 2_000, "ops_per_session": 120,
        "checkpoint_every": 60, "reorganize_every": 30,
    },
}


def small_workload(name: str):
    workload = WORKLOADS[name]()
    for attribute, value in SMALL[name].items():
        setattr(workload, attribute, value)
    workload.fixed_sessions = 1
    return workload


def seeded_outcome(name: str, seed: int, log=None):
    workload = small_workload(name)
    results, __ = run.run_sessions(workload, seed, 1, log=log)
    return run.sim_metrics(results), workload.finish(seed, None), results


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_simulated_metrics(name):
    first, first_extra, first_results = seeded_outcome(name, 7)
    second, second_extra, second_results = seeded_outcome(name, 7)
    assert first == second
    assert first_extra == second_extra
    assert set(first) == {
        "sim_op_p50_us", "sim_op_p99_us", "sim_ops_per_s", "failed_ratio", "space_amp",
    }
    assert not [p for r in first_results + second_results for p in r.problems]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_has_no_observer_effect(name):
    from spans import SpanLog

    log = SpanLog()
    plain, __, __ = seeded_outcome(name, 3)
    traced, __, results = seeded_outcome(name, 3, log=log)
    assert plain == traced
    assert log.names and not log._stack
    assert not [p for r in results for p in r.problems]


def test_nominal_serving_session_sheds_nothing():
    # Seed 22, session 15 builds the deepest backlog seen at the nominal
    # rate (52 waiting queries); a timed session must shed no op.
    from refclock import RefClock

    workload = WORKLOADS["serve_htap"]()
    session = workload.build(22, 15, None)
    result = workload.run(session, RefClock())
    assert result.ops > 0 and result.failed == 0


def test_span_self_time_excludes_children():
    from spans import SpanLog

    log = SpanLog()
    with log.span("outer"):
        with log.span("inner"):
            sum(range(10_000))
    totals = log.self_totals()
    outer = log.ends[0] - log.starts[0]
    inner = log.ends[1] - log.starts[1]
    assert totals["outer"]["host_self_ms"] == pytest.approx((outer - inner) / 1e6)
    assert totals["inner"]["calls"] == 1


def test_trace_restores_every_boundary():
    from spans import SpanLog, boundaries, traced

    before = [vars(owner)[attribute] for owner, attribute, __, __ in boundaries()]
    with traced(SpanLog()):
        pass
    after = [vars(owner)[attribute] for owner, attribute, __, __ in boundaries()]
    assert before == after


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_htap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    mapping = json.loads((HERE / "mapping.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert set(mapping["moves"]) <= layer_names
    assert set(mapping["bypasses"]) == set(WORKLOADS)

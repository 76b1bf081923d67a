"""The serving verifier's gates and CLI record."""

from __future__ import annotations

import json
import logging

import pytest

from repro.serving.verifier import (
    MAX_TAIL_RATIO,
    MIN_BATCH_SPEEDUP,
    run_serving_verifier,
)


@pytest.fixture(scope="module")
def verdict():
    """One smoke run of every gate on seed 5 (each cell runs twice)."""
    return run_serving_verifier([5], smoke=True)


class TestGates:
    def test_all_gates_pass_on_the_smoke_cell(self, verdict):
        assert verdict.problems == []
        cell = verdict.payload["seeds"]["5"]
        assert all(cell["gates"].values()), cell["gates"]
        assert cell["deterministic"] is True
        assert cell["identity_mismatches"] == 0
        assert cell["speedup"] >= MIN_BATCH_SPEEDUP
        assert 0 < cell["bounded"]["tail_ratio"] <= MAX_TAIL_RATIO
        assert cell["chaos_injected"] > 0
        assert cell["chaos_unaccounted"] == 0

    def test_record_is_json_serializable_and_self_describing(self, verdict):
        payload = json.loads(json.dumps(verdict.payload, sort_keys=True))
        assert "thresholds" in payload and "config" in payload
        assert len(payload["seeds"]["5"]["chaos_fingerprint"]) == 64
        assert set(verdict.metrics) == set(verdict.tolerances)

    def test_per_tenant_latency_percentiles_in_the_record(self, verdict):
        summaries = verdict.payload["seeds"]["5"]["tenant_latency"]
        assert summaries  # at least one tenant served
        for tenant, stats in summaries.items():
            assert tenant.startswith("t")
            assert stats["count"] > 0
            assert 0 < stats["p50"] <= stats["p95"] <= stats["p99"]


class TestCLI:
    def test_main_smoke_writes_the_record_and_exits_zero(self, tmp_path, caplog):
        from repro.obs.bench import validate_bench_record
        from repro.serving.__main__ import main

        output = tmp_path / "BENCH_serving.json"
        with caplog.at_level(logging.INFO, logger="repro"):
            code = main(["--smoke", "--seeds", "5", "--output", str(output)])
        assert code == 0
        record = json.loads(output.read_text())
        assert validate_bench_record(record) == []
        assert record["bench"] == "serving"
        assert record["ok"] is True
        assert caplog.text.count("serving verifier: OK") == 1

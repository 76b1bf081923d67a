"""The time-series plane must not perturb a serving run byte-for-byte.

The windowed registry hooks in the serving loop and the fault injector
only ever *read* the simulated clock — they never charge a cycle and never draw randomness.  These
tests run identical serving cells with the plane on and off and compare
the full observable behaviour: answers, makespan, and every counter.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs.timeseries import WindowedRegistry
from repro.serving.server import BATCH_16
from repro.serving.verifier import build_tenants, serve_once


def fingerprint(outcome):
    return {
        "answers": [
            (seq, repr(answer))
            for seq, __, answer in outcome.loop.answers_for_replay()
        ],
        "makespan": outcome.report.makespan_cycles,
        "snapshot": outcome.ctx.counters.snapshot(),
    }


def run_cell(seed, overflow_rate, registry):
    horizon = 300_000.0
    tenants = build_tenants(2, 40_000.0, "poisson", horizon)
    return serve_once(
        seed,
        2_000,
        tenants,
        horizon,
        BATCH_16,
        max_backlog=8 if overflow_rate else None,
        overflow_rate=overflow_rate,
        registry=registry,
    )


class TestWindowedZeroObserver:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        chaotic=st.booleans(),
    )
    def test_windowed_run_is_byte_identical(self, seed, chaotic):
        overflow = 0.08 if chaotic else 0.0
        plain = run_cell(seed, overflow, registry=None)
        windowed = run_cell(seed, overflow, registry=WindowedRegistry())
        assert fingerprint(windowed) == fingerprint(plain)

    def test_windowed_run_actually_recorded_series(self):
        registry = WindowedRegistry()
        run_cell(5, 0.0, registry=registry)
        assert registry.matching("serving.latency")
        assert registry.matching("serving.served")
        assert registry.total("serving.served") > 0

    def test_windowed_run_closes_against_root_counters(self):
        registry = WindowedRegistry()
        outcome = run_cell(5, 0.08, registry=registry)
        assert registry.verify_closure(outcome.ctx.counters) == []

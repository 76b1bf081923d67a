"""Windowed dimensional time series: rings, windows, closure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.event import PerfCounters
from repro.obs.timeseries import (
    COUNTER_SERIES,
    LABEL_KEYS,
    TimeSeries,
    WindowedRegistry,
    aggregate_windows,
)


class TestTimeSeries:
    def test_counter_rejects_negative_delta(self):
        series = TimeSeries("events", frozenset())
        with pytest.raises(ValueError):
            series.append(10.0, -1.0)

    def test_gauge_accepts_any_value(self):
        series = TimeSeries("level", frozenset(), kind="gauge")
        series.append(5.0, -3.0)
        assert series.total == -3.0

    def test_running_aggregates_survive_eviction(self):
        series = TimeSeries("events", frozenset(), capacity=4)
        for cycle in range(10):
            series.append(float(cycle), 1.0)
        assert series.total == 10.0
        assert series.count == 10
        assert series.evicted == 6
        assert series.evicted_value == 6.0
        # The ring only shows the newest four samples, in cycle order.
        assert series.samples() == [(6.0, 1.0), (7.0, 1.0), (8.0, 1.0), (9.0, 1.0)]

    def test_unknown_kind_and_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries("x", frozenset(), kind="summary")
        with pytest.raises(ValueError):
            TimeSeries("x", frozenset(), capacity=0)


class TestLabels:
    def test_unknown_label_key_is_a_hard_error(self):
        registry = WindowedRegistry()
        with pytest.raises(ValueError, match="unknown label keys"):
            registry.record("events", 1.0, cycle=0.0, region="us-east")

    def test_vocabulary_keys_all_accepted(self):
        registry = WindowedRegistry()
        for key in sorted(LABEL_KEYS):
            registry.record("events", 1.0, cycle=0.0, **{key: "a"})
        assert registry.total("events") == float(len(LABEL_KEYS))

    def test_matching_filters_on_label_subset(self):
        registry = WindowedRegistry()
        registry.record("events", 1.0, cycle=0.0, tenant="t0", shard="0")
        registry.record("events", 2.0, cycle=0.0, tenant="t0", shard="1")
        registry.record("events", 4.0, cycle=0.0, tenant="t1", shard="0")
        assert registry.total("events", tenant="t0") == 3.0
        assert registry.total("events", shard="0") == 5.0
        assert registry.total("events") == 7.0

    def test_kind_is_fixed_at_first_use(self):
        registry = WindowedRegistry()
        registry.record("latency", 10.0, cycle=0.0, kind="gauge")
        with pytest.raises(ValueError, match="already exists as kind"):
            registry.record("latency", 1.0, cycle=1.0, kind="counter")


class TestWindows:
    def test_tumbling_windows_partition_the_timeline(self):
        registry = WindowedRegistry()
        for cycle in (0.0, 10.0, 25.0, 99.0):
            registry.record("events", 1.0, cycle=cycle)
        windows = registry.windows("events", width=50.0, end=99.0)
        assert len(windows) == 2
        assert [window.sum for window in windows] == [3.0, 1.0]
        assert windows[0].start == 0.0 and windows[0].end == 50.0
        assert windows[1].start == 50.0 and windows[1].end == 100.0

    def test_sliding_windows_overlap(self):
        registry = WindowedRegistry()
        for cycle in (0.0, 40.0, 80.0):
            registry.record("events", 1.0, cycle=cycle)
        windows = registry.windows("events", width=50.0, stride=25.0, end=80.0)
        # Strided starts: 0, 25, 50 — the last window contains end=80.
        assert [(w.start, w.end) for w in windows] == [
            (0.0, 50.0),
            (25.0, 75.0),
            (50.0, 100.0),
        ]
        assert [window.sum for window in windows] == [2.0, 1.0, 1.0]

    def test_gauge_window_percentiles_match_histogram_math(self):
        registry = WindowedRegistry()
        for index, value in enumerate((10.0, 20.0, 30.0, 40.0)):
            registry.record(
                "latency", value, cycle=float(index), kind="gauge"
            )
        (window,) = registry.windows("latency", width=100.0, end=50.0)
        assert window.count == 4
        assert window.mean == 25.0
        assert window.p50 == pytest.approx(25.0)
        assert window.p95 == pytest.approx(38.5)

    def test_rate_is_sum_over_width(self):
        windows = aggregate_windows([(5.0, 10.0)], width=100.0, stride=100.0, end=5.0)
        assert windows[0].rate == pytest.approx(0.1)

    def test_bad_width_and_stride_rejected(self):
        registry = WindowedRegistry()
        with pytest.raises(ValueError):
            registry.windows("events", width=0.0)
        with pytest.raises(ValueError):
            registry.windows("events", width=10.0, stride=20.0)

    def test_clock_clamps_stale_stamps(self):
        """A long-lived scope's counter lags the loop's *now*; the clamp
        keeps its emissions from landing in already-closed windows."""
        registry = WindowedRegistry()
        registry.advance_clock(1_000.0)
        registry.record("events", 1.0, cycle=5.0)
        (series,) = registry.matching("events")
        assert series.samples() == [(1_000.0, 1.0)]


class TestClosure:
    def test_platform_series_close_against_perfcounters(self):
        registry = WindowedRegistry()
        totals = PerfCounters()
        for cycle in (100.0, 250.0, 900.0):
            delta = PerfCounters(cycles=cycle / 10.0, pcie_bytes=64, transfers=1)
            registry.sample_counters(delta, cycle)
            totals.merge(delta)
        assert registry.verify_closure(totals) == []

    def test_lost_increment_is_detected(self):
        registry = WindowedRegistry()
        totals = PerfCounters()
        delta = PerfCounters(pcie_bytes=64)
        registry.sample_counters(delta, 10.0)
        totals.merge(delta)
        totals.pcie_bytes += 64  # charged but never emitted
        problems = registry.verify_closure(totals)
        assert any("platform.pcie_bytes" in problem for problem in problems)

    def test_event_sourced_series_close_via_counter_series_map(self):
        registry = WindowedRegistry()
        totals = PerfCounters(faults_injected=3)
        registry.record("fault.injected", 1.0, cycle=10.0, fault_site="x.y")
        registry.record("fault.injected", 1.0, cycle=20.0, fault_site="x.y")
        registry.record("fault.injected", 1.0, cycle=30.0, fault_site="z.w")
        assert registry.verify_closure(totals) == []
        totals.faults_injected += 1
        problems = registry.verify_closure(totals)
        assert any("PerfCounters.faults_injected" in p for p in problems)

    def test_eviction_breaks_the_gate(self):
        registry = WindowedRegistry(ring_capacity=2)
        totals = PerfCounters(faults_injected=3)
        for cycle in (1.0, 2.0, 3.0):
            registry.record("fault.injected", 1.0, cycle=cycle)
        problems = registry.verify_closure(totals)
        assert any("ring evicted" in problem for problem in problems)

    def test_counter_series_map_names_real_fields(self):
        field_names = set(PerfCounters().snapshot())
        assert set(COUNTER_SERIES.values()) <= field_names

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e7),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=64,
        )
    )
    def test_window_sums_close_for_any_sample_stream(self, stream):
        """The closure property: for any counter stream, tumbling-window
        sums over the full timeline equal the running total exactly."""
        registry = WindowedRegistry()
        totals = PerfCounters()
        for cycle, faults in stream:
            delta = PerfCounters(faults_injected=faults)
            if faults:
                registry.record(
                    "fault.injected", float(faults), cycle=cycle, fault_site="x.y"
                )
            totals.merge(delta)
        assert registry.verify_closure(totals) == []
        end = max((cycle for cycle, __ in stream), default=0.0)
        windows = registry.windows("fault.injected", width=max(end / 7.0, 1.0))
        assert sum(w.sum for w in windows) == pytest.approx(
            registry.total("fault.injected")
        )


class TestObserveQuery:
    def test_observe_query_still_feeds_base_aggregation(self):
        registry = WindowedRegistry()
        registry.advance_clock(500.0)
        counters = PerfCounters(cycles=120.0, pcie_bytes=256, transfers=2)
        snapshot = registry.observe_query("q0", counters)
        assert snapshot["cycles"] == 120.0
        assert registry.totals.pcie_bytes == 256
        assert registry.histogram("query.cycles").values == [120.0]
        # ...and lands platform.* samples stamped at the loop clock.
        (series,) = registry.matching("platform.pcie_bytes")
        assert series.samples() == [(500.0, 256.0)]
        assert registry.verify_closure(counters) == []


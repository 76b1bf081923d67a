"""Tracer span/event recording and the nesting invariant."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ExecutionError
from repro.hardware.event import PerfCounters
from repro.obs.tracer import (
    Span,
    Tracer,
    nesting_violations,
)


class TestSpanRecording:
    def test_span_duration_is_charged_cycles(self):
        tracer = Tracer()
        counters = PerfCounters()
        span = tracer.begin("scan", "operator", counters)
        counters.charge(1234.0)
        tracer.end(span, counters)
        assert span.cycles == 1234.0
        assert tracer.roots == [span]

    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        counters = PerfCounters()
        with tracer.span("query", "query", counters) as root:
            counters.charge(10)
            with tracer.span("kernel", "kernel", counters) as child:
                counters.charge(90)
        assert root.children == [child]
        assert child.begin == 10 and child.end == 100
        assert root.self_cycles == 10.0

    def test_end_of_non_innermost_span_raises(self):
        tracer = Tracer()
        counters = PerfCounters()
        outer = tracer.begin("outer", "query", counters)
        tracer.begin("inner", "operator", counters)
        with pytest.raises(ExecutionError):
            tracer.end(outer, counters)

    def test_span_context_manager_closes_on_error(self):
        tracer = Tracer()
        counters = PerfCounters()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed", "operator", counters):
                counters.charge(7)
                raise RuntimeError("boom")
        assert tracer.current is None
        assert tracer.roots[0].end == 7

    def test_instant_events_and_categories(self):
        tracer = Tracer()
        counters = PerfCounters(cycles=55.0)
        event = tracer.instant("fault(pcie)", "fault", counters, site="pcie")
        assert event.ts == 55.0 and event.attrs == {"site": "pcie"}
        with tracer.span("q", "query", counters):
            pass
        assert tracer.categories() == {"fault", "query"}

    def test_annotate_targets_innermost_span(self):
        tracer = Tracer()
        counters = PerfCounters()
        with tracer.span("q", "query", counters):
            with tracer.span("op", "operator", counters) as inner:
                tracer.annotate(served_by="gpu")
        assert inner.attrs == {"served_by": "gpu"}
        tracer.annotate(ignored=True)  # no open span: no-op, no raise

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        counters = PerfCounters()
        with tracer.span("a", "query", counters):
            with tracer.span("b", "operator", counters):
                with tracer.span("c", "kernel", counters):
                    pass
            with tracer.span("d", "operator", counters):
                pass
        assert [span.name for span in tracer.spans()] == ["a", "b", "c", "d"]


class TestNestingValidator:
    def test_clean_tree_has_no_violations(self):
        tracer = Tracer()
        counters = PerfCounters()
        with tracer.span("q", "query", counters):
            counters.charge(5)
            with tracer.span("op", "operator", counters):
                counters.charge(10)
            counters.charge(5)
        assert nesting_violations(tracer.roots[0]) == []

    def test_open_span_is_flagged(self):
        span = Span(name="stuck", category="operator", begin=0.0)
        assert nesting_violations(span) == ["stuck: span never closed"]

    def test_escaping_child_is_flagged(self):
        parent = Span(name="p", category="query", begin=0.0, end=10.0)
        parent.children.append(
            Span(name="c", category="operator", begin=5.0, end=20.0)
        )
        assert any("escapes parent" in p for p in nesting_violations(parent))

    def test_overlapping_siblings_are_flagged(self):
        parent = Span(name="p", category="query", begin=0.0, end=100.0)
        parent.children.append(
            Span(name="a", category="operator", begin=0.0, end=60.0)
        )
        parent.children.append(
            Span(name="b", category="operator", begin=40.0, end=90.0)
        )
        assert any("before sibling" in p for p in nesting_violations(parent))


class TestPlatformAttachment:
    def test_new_platform_starts_unobserved(self):
        from repro.hardware.platform import Platform

        platform = Platform.paper_testbed()
        assert platform.tracer is None
        assert platform.metrics is None


@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(["open", "close"]),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        ),
        max_size=60,
    )
)
def test_property_spans_on_monotone_clock_always_nest(steps):
    """Any open/close sequence under a non-decreasing clock nests cleanly.

    This is the structural guarantee behind the simulated timeline: the
    tracer reads cycles that only ever grow, so escapes, overlaps and
    out-of-order siblings cannot occur by construction.
    """
    tracer = Tracer()
    counters = PerfCounters()
    open_spans = []
    for action, charge in steps:
        counters.charge(charge)
        if action == "open":
            open_spans.append(
                tracer.begin(f"s{len(open_spans)}", "operator", counters)
            )
        elif open_spans:
            tracer.end(open_spans.pop(), counters)
    while open_spans:
        counters.charge(1.0)
        tracer.end(open_spans.pop(), counters)
    for root in tracer.roots:
        assert nesting_violations(root) == []

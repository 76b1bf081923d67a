"""The trace's running statistics aggregate against the one-shot fold.

``WorkloadTrace.statistics`` keeps ``AttributeStatistics`` incrementally
(a lazy fold cursor, subtraction on eviction); ``from_events`` over
``window()`` is the oracle it must equal after any record, read and
clear stream.  The guard test pins that an engine folds each traced
access once instead of re-folding the window on every reorganize.
"""

import copy
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapt.statistics import AttributeStatistics
from repro.core.reference_engine import ReferenceEngine
from repro.errors import WorkloadError
from repro.execution import ExecutionContext
from repro.execution.access import AccessDescriptor, AccessKind
from repro.model.datatypes import INT32
from repro.model.schema import Schema
from repro.workload.trace import WorkloadTrace

SCHEMA = Schema.of(("a", INT32), ("b", INT32), ("c", INT32), ("d", INT32))
THRESHOLDS = (0.25, 0.5, 1.0)

# Records dominate so windows fill and evict; one step in ten clears.
STEP_KINDS = ("record",) * 6 + ("read",) * 3 + ("clear",)


@st.composite
def events(draw):
    attributes = draw(
        st.lists(st.sampled_from(SCHEMA.names), min_size=1, max_size=4)
    )
    if draw(st.integers(0, 7)) == 0:  # an occasional unknown attribute
        attributes = [*attributes[:3], "zz"]
    return AccessDescriptor(
        kind=draw(st.sampled_from(AccessKind)),
        attributes=tuple(attributes),
        row_count=draw(st.one_of(st.integers(0, 12), st.integers(0, 2_000))),
        relation_rows=draw(st.integers(0, 2_000)),
        relation_arity=draw(st.integers(len(attributes), 8)),
    )


steps = st.lists(
    st.sampled_from(STEP_KINDS).flatmap(
        lambda kind: st.tuples(
            st.just(kind), events() if kind == "record" else st.none()
        )
    ),
    max_size=60,
)


def fractions(window):
    """The three shape fractions as a pass over *window* computes them."""
    if not window:
        return 1.0, 0.0, 0.0
    return (
        sum(event.kind is AccessKind.READ for event in window) / len(window),
        sum(event.is_record_centric for event in window) / len(window),
        sum(event.is_attribute_centric for event in window) / len(window),
    )


def assert_same_statistics(actual, expected):
    assert dict(actual.access_count) == dict(expected.access_count)
    assert dict(actual.write_count) == dict(expected.write_count)
    assert dict(actual.co_access) == dict(expected.co_access)
    assert actual.events == expected.events
    for name in SCHEMA.names:
        assert actual.frequency(name) == expected.frequency(name)
    for first, second in permutations(SCHEMA.names, 2):
        assert actual.affinity(first, second) == expected.affinity(first, second)
    assert actual.hottest(SCHEMA.arity) == expected.hottest(SCHEMA.arity)
    for threshold in THRESHOLDS:
        assert actual.affinity_groups(threshold) == expected.affinity_groups(
            threshold
        )


def read_and_compare(trace):
    """Read *trace*'s aggregates and compare them with one-shot folds."""
    window = trace.window()
    assert (
        trace.read_fraction(),
        trace.record_centric_fraction(),
        trace.attribute_centric_fraction(),
    ) == fractions(window)
    try:
        expected = AttributeStatistics.from_events(SCHEMA, window)
    except WorkloadError as error:
        with pytest.raises(type(error)) as raised:
            trace.statistics(SCHEMA)
        assert str(raised.value) == str(error)
        return
    assert_same_statistics(trace.statistics(SCHEMA), expected)


@given(st.integers(1, 8), steps)
@settings(max_examples=300, deadline=None)
def test_running_statistics_equal_the_window_fold(capacity, stream):
    trace = WorkloadTrace(capacity=capacity)
    for step, event in stream:
        if step == "record":
            trace.record(event)
        elif step == "clear":
            trace.clear()
        else:
            read_and_compare(trace)
        # Read a copy so the real trace keeps its pending events and
        # the next read folds them through the lazy cursors.  The copy
        # shares the schema object: an unequal copy would refold.
        read_and_compare(copy.deepcopy(trace, {id(SCHEMA): SCHEMA}))


class TestTraceStatistics:
    def event(self, attributes, rows=1, kind=AccessKind.READ):
        return AccessDescriptor(kind, tuple(attributes), rows, 1000, 4)

    def test_returns_a_copy(self):
        trace = WorkloadTrace()
        trace.record(self.event(("a", "b")))
        first = trace.statistics(SCHEMA)
        first.access_count["a"] += 100
        first.co_access[("a", "b")] += 100
        assert trace.statistics(SCHEMA).access_count["a"] == 1
        assert trace.statistics(SCHEMA).co_access[("a", "b")] == 1

    def test_unknown_event_stays_rejected_until_evicted(self):
        trace = WorkloadTrace(capacity=2)
        trace.record(self.event(("a",), rows=5))
        trace.record(self.event(("b", "zz")))
        with pytest.raises(WorkloadError, match="unknown attribute 'zz'"):
            trace.statistics(SCHEMA)
        with pytest.raises(WorkloadError, match="unknown attribute 'zz'"):
            trace.statistics(SCHEMA)
        trace.record(self.event(("c",), rows=3))
        trace.record(self.event(("c",), rows=4))
        stats = trace.statistics(SCHEMA)
        assert dict(stats.access_count) == {"c": 7}
        assert stats.events == 2

    def test_another_schema_refolds_the_window(self):
        wide = Schema.of(*((name, INT32) for name in "abcde"))
        trace = WorkloadTrace(capacity=3)
        for attributes in (("a", "e"), ("b",), ("e",), ("a", "b")):
            trace.record(self.event(attributes))
        with pytest.raises(WorkloadError):
            trace.statistics(SCHEMA)
        assert_same_statistics(
            trace.statistics(wide),
            AttributeStatistics.from_events(wide, trace.window()),
        )


def test_reorganize_folds_each_traced_access_once(
    loaded_item_engine_factory, monkeypatch
):
    """Adaptation cost follows new events, not the window size."""
    observed = []
    observe = AttributeStatistics.observe

    def counting_observe(self, event):
        observed.append(event)
        observe(self, event)

    def no_refold(*args, **kwargs):
        raise AssertionError("from_events re-folded a window on the engine path")

    monkeypatch.setattr(AttributeStatistics, "observe", counting_observe)
    monkeypatch.setattr(AttributeStatistics, "from_events", no_refold)

    engine, platform = loaded_item_engine_factory(
        ReferenceEngine, delta_tile_rows=64
    )
    ctx = ExecutionContext(platform)
    trace = engine.managed("item").trace
    windows_read = 0
    for op in range(60):
        if op % 3 == 0:
            engine.sum("item", "i_price", ctx)
        elif op % 3 == 1:
            engine.materialize("item", [op, op + 1], ctx)
        else:
            engine.update("item", op, "i_price", float(op), ctx)
        if (op + 1) % 5 == 0:
            windows_read += len(trace)
            engine.reorganize("item", ctx)
    assert trace.total_recorded == len(trace) == 60
    assert len(observed) == trace.total_recorded
    assert windows_read > 5 * len(observed)

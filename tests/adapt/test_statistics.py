"""Workload statistics tests: frequency, affinity, clustering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapt.statistics import AttributeStatistics
from repro.errors import WorkloadError
from repro.execution.access import AccessDescriptor, AccessKind
from repro.model.datatypes import INT32
from repro.model.schema import Schema


@pytest.fixture
def schema():
    return Schema.of(("a", INT32), ("b", INT32), ("c", INT32), ("d", INT32))


def event(attrs, rows=1, kind=AccessKind.READ, total=1000, arity=4):
    return AccessDescriptor(kind, tuple(attrs), rows, total, arity)


class TestCounting:
    def test_weighted_by_rows(self, schema):
        stats = AttributeStatistics.from_events(
            schema, [event(("a",), rows=100), event(("b",), rows=1)]
        )
        assert stats.access_count["a"] == 100
        assert stats.frequency("a") == pytest.approx(100 / 101)

    def test_write_counts(self, schema):
        stats = AttributeStatistics.from_events(
            schema, [event(("a",), kind=AccessKind.WRITE), event(("a",))]
        )
        assert stats.write_count["a"] == 1
        assert stats.access_count["a"] == 2

    def test_unknown_attribute_rejected(self, schema):
        stats = AttributeStatistics(schema=schema)
        with pytest.raises(WorkloadError):
            stats.observe(event(("zz",)))

    def test_rejected_event_changes_no_count(self, schema):
        stats = AttributeStatistics.from_events(schema, [event(("a", "b"))])
        with pytest.raises(WorkloadError, match="unknown attribute 'zz'"):
            stats.observe(event(("a", "b", "zz"), kind=AccessKind.WRITE))
        assert dict(stats.access_count) == {"a": 1, "b": 1}
        assert dict(stats.write_count) == {}
        assert dict(stats.co_access) == {("a", "b"): 1}
        assert stats.events == 1

    def test_forget_inverts_observe(self, schema):
        kept = [event(("a", "c"), rows=3), event(("b",), kind=AccessKind.WRITE)]
        dropped = event(("c", "a", "d"), rows=0, kind=AccessKind.WRITE)
        stats = AttributeStatistics.from_events(schema, [dropped, *kept])
        stats.forget(dropped)
        fresh = AttributeStatistics.from_events(schema, kept)
        assert dict(stats.access_count) == dict(fresh.access_count)
        assert dict(stats.write_count) == dict(fresh.write_count)
        assert dict(stats.co_access) == dict(fresh.co_access)
        assert stats.events == fresh.events == 2

    def test_hottest_ranking(self, schema):
        stats = AttributeStatistics.from_events(
            schema, [event(("c",), rows=10), event(("a",), rows=5)]
        )
        assert stats.hottest(2) == ["c", "a"]

    def test_frequency_empty(self, schema):
        assert AttributeStatistics(schema=schema).frequency("a") == 0.0


class TestAffinity:
    def test_perfect_co_access(self, schema):
        stats = AttributeStatistics.from_events(schema, [event(("a", "b"))] * 5)
        assert stats.affinity("a", "b") == pytest.approx(1.0)
        assert stats.affinity("b", "a") == pytest.approx(1.0)  # symmetric

    def test_no_co_access(self, schema):
        stats = AttributeStatistics.from_events(
            schema, [event(("a",)), event(("b",))]
        )
        assert stats.affinity("a", "b") == 0.0

    def test_partial_affinity(self, schema):
        events = [event(("a", "b"))] * 3 + [event(("a",))] * 7
        stats = AttributeStatistics.from_events(schema, events)
        assert stats.affinity("a", "b") == pytest.approx(1.0)  # b never alone
        events = [event(("a", "b"))] * 3 + [event(("b",))] * 3
        stats = AttributeStatistics.from_events(schema, events)
        assert stats.affinity("a", "b") == pytest.approx(1.0)


class TestGroups:
    def test_clusters_follow_co_access(self, schema):
        events = [event(("a", "b"))] * 10 + [event(("c",))] * 10 + [event(("d",))]
        stats = AttributeStatistics.from_events(schema, events)
        assert stats.affinity_groups(0.5) == [("a", "b"), ("c",), ("d",)]

    def test_transitive_clustering(self, schema):
        events = [event(("a", "b"))] * 10 + [event(("b", "c"))] * 10
        stats = AttributeStatistics.from_events(schema, events)
        assert ("a", "b", "c") in stats.affinity_groups(0.4)

    def test_untouched_attributes_are_singletons(self, schema):
        stats = AttributeStatistics.from_events(schema, [event(("a",))])
        groups = stats.affinity_groups()
        assert ("b",) in groups and ("c",) in groups and ("d",) in groups

    def test_groups_partition_schema(self, schema):
        events = [event(("a", "c"))] * 4 + [event(("b", "d"))] * 4
        stats = AttributeStatistics.from_events(schema, events)
        groups = stats.affinity_groups(0.5)
        flat = sorted(name for group in groups for name in group)
        assert flat == sorted(schema.names)

    def test_invalid_threshold(self, schema):
        stats = AttributeStatistics(schema=schema)
        with pytest.raises(WorkloadError):
            stats.affinity_groups(0.0)
        with pytest.raises(WorkloadError):
            stats.affinity_groups(1.5)


class TestHandBuiltGraphs:
    """Exact components, in schema order, on hand-built co-access graphs."""

    @pytest.fixture
    def wide(self):
        return Schema.of(*((name, INT32) for name in "abcdef"))

    def groups(self, schema, events, threshold=0.5):
        return AttributeStatistics.from_events(schema, events).affinity_groups(
            threshold
        )

    def test_disjoint_cliques_interleaved_in_schema(self, wide):
        events = [event(("a", "c", "e"))] * 3 + [event(("b", "d"))] * 2
        assert self.groups(wide, events) == [
            ("a", "c", "e"),
            ("b", "d"),
            ("f",),
        ]

    def test_chain_built_from_its_far_end(self, wide):
        pairs = [("e", "f"), ("d", "e"), ("c", "d"), ("b", "c")]
        events = [event(pair) for pair in pairs] + [event(("a",))]
        assert self.groups(wide, events) == [
            ("a",),
            ("b", "c", "d", "e", "f"),
        ]

    def test_chain_through_a_late_attribute(self, wide):
        events = [event(("a", "f")), event(("c", "f"))]
        assert self.groups(wide, events) == [
            ("a", "c", "f"),
            ("b",),
            ("d",),
            ("e",),
        ]

    def test_star_around_one_attribute(self, wide):
        events = [event(("b", other)) for other in "adf"]
        assert self.groups(wide, events) == [
            ("a", "b", "d", "f"),
            ("c",),
            ("e",),
        ]

    def test_all_singletons(self, wide):
        events = [event((name,)) for name in "fedcba"]
        assert self.groups(wide, events) == [(name,) for name in "abcdef"]

    def test_threshold_edge_is_inclusive(self, wide):
        # affinity(a, b) = 1 together / min(2, 2) alone-or-together = 0.5
        events = [event(("a", "b")), event(("a",)), event(("b",))]
        assert self.groups(wide, events, 0.5)[0] == ("a", "b")
        assert self.groups(wide, events, 0.51)[:2] == [("a",), ("b",)]


@given(
    st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=40)
def test_groups_always_partition_property(touched_sets):
    schema = Schema.of(("a", INT32), ("b", INT32), ("c", INT32), ("d", INT32))
    stats = AttributeStatistics.from_events(
        schema, [event(tuple(attrs)) for attrs in touched_sets]
    )
    for threshold in (0.3, 0.6, 1.0):
        groups = stats.affinity_groups(threshold)
        flat = sorted(name for group in groups for name in group)
        assert flat == ["a", "b", "c", "d"]

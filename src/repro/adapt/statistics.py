"""Workload statistics: attribute frequencies and co-access affinity.

The adaptive engines in the survey share one analytical core: observe
which attributes are touched, and which are touched *together* (ES2:
"if columns are frequently accessed together, then these columns are
moved into one new physical sub-relation"; HYRISE re-adapts
per-sub-partition widths the same way).  :class:`AttributeStatistics`
distills a workload trace into exactly those signals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from repro.errors import WorkloadError
from repro.execution.access import AccessDescriptor, AccessKind
from repro.model.schema import Schema

__all__ = ["AttributeStatistics"]


@dataclass
class AttributeStatistics:
    """Frequency and affinity aggregates over a trace window.

    Build with :meth:`from_events`, or read a trace's running aggregate
    with :meth:`repro.workload.trace.WorkloadTrace.statistics`; all
    counters weight an event by the number of rows it touched, so one
    full scan counts as much as many point queries — matching how the
    physical penalty scales.  Counts are integers and never hold a zero
    entry.
    """

    schema: Schema
    access_count: Counter = field(default_factory=Counter)
    write_count: Counter = field(default_factory=Counter)
    co_access: Counter = field(default_factory=Counter)
    events: int = 0

    @classmethod
    def from_events(
        cls, schema: Schema, events: Sequence[AccessDescriptor]
    ) -> "AttributeStatistics":
        """Aggregate *events* (weighting each by its touched-row count)."""
        stats = cls(schema=schema)
        for event in events:
            stats.observe(event)
        return stats

    def copy(self) -> "AttributeStatistics":
        """An independent snapshot of the aggregates."""
        return AttributeStatistics(
            schema=self.schema,
            access_count=Counter(self.access_count),
            write_count=Counter(self.write_count),
            co_access=Counter(self.co_access),
            events=self.events,
        )

    def observe(self, event: AccessDescriptor) -> None:
        """Fold one access event into the aggregates.

        An event touching an attribute outside the schema raises
        :class:`~repro.errors.WorkloadError` and changes no count.
        """
        for attribute in event.attributes:
            if attribute not in self.schema:
                raise WorkloadError(
                    f"event touches unknown attribute {attribute!r}"
                )
        self._add(event, 1)

    def forget(self, event: AccessDescriptor) -> None:
        """Take back one event :meth:`observe` folded in (its exact inverse).

        Counts that reach zero are deleted, so the aggregates equal
        those of a fresh :meth:`from_events` over the remaining events.
        """
        self._add(event, -1)

    def _add(self, event: AccessDescriptor, sign: int) -> None:
        weight = sign * max(event.row_count, 1)
        keyed = [(self.access_count, event.attributes)]
        if event.kind is AccessKind.WRITE:
            keyed.append((self.write_count, event.attributes))
        keyed.append((self.co_access, combinations(sorted(event.attributes), 2)))
        for counter, keys in keyed:
            for key in keys:
                count = counter[key] + weight
                if count:
                    counter[key] = count
                else:
                    del counter[key]
        self.events += sign

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def frequency(self, attribute: str) -> float:
        """Touched-row-weighted access share of *attribute* in [0, 1]."""
        total = sum(self.access_count.values())
        if total == 0:
            return 0.0
        return self.access_count[attribute] / total

    def affinity(self, first: str, second: str) -> float:
        """Normalized co-access strength of two attributes in [0, 1].

        The co-access count divided by the smaller of the two attributes'
        own counts: 1.0 means the rarer attribute is never touched
        without the other.
        """
        key = (first, second) if first <= second else (second, first)
        together = self.co_access[key]
        if together == 0:
            return 0.0
        smaller = min(self.access_count[first], self.access_count[second])
        return together / smaller if smaller else 0.0

    def hottest(self, top: int) -> list[str]:
        """The *top* most-accessed attributes, most frequent first."""
        ranked = sorted(
            self.schema.names,
            key=lambda name: (-self.access_count[name], name),
        )
        return ranked[: max(top, 0)]

    def affinity_groups(self, threshold: float = 0.5) -> list[tuple[str, ...]]:
        """Partition the schema into co-access clusters.

        Builds the affinity graph (edges with affinity >= *threshold*)
        and returns its connected components in schema order — the
        vertical-partitioning proposal ES2's first step makes.
        Untouched attributes cluster together at the end (the
        "hide less-frequently accessed columns" effect).
        """
        if not 0.0 < threshold <= 1.0:
            raise WorkloadError(f"threshold must be in (0,1], got {threshold}")
        # Union-find over the schema: each edge merges two components.
        parent = {name: name for name in self.schema.names}

        def root(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        for first, second in self.co_access:
            if self.affinity(first, second) >= threshold:
                parent[root(first)] = root(second)
        # Walking the schema in order keeps members in schema order and
        # orders the groups by their first member.
        components: dict[str, list[str]] = {}
        for name in self.schema.names:
            components.setdefault(root(name), []).append(name)
        return [tuple(members) for members in components.values()]

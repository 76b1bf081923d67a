"""Workload traces: recorded access descriptors over time windows.

Responsive engines (HYRISE, H2O, HyPer, Peloton, ES2, the reference
design) adapt their layouts "based on query workload traces".  A
:class:`WorkloadTrace` is the substrate: it records
:class:`~repro.execution.access.AccessDescriptor` events, serves
windowed views, and keeps the window's
:class:`~repro.adapt.statistics.AttributeStatistics` as a running
aggregate, so an adaptation step reads them without re-folding the
window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Sequence

from repro.adapt.statistics import AttributeStatistics
from repro.errors import WorkloadError
from repro.execution.access import AccessDescriptor, AccessKind
from repro.model.schema import Schema

__all__ = ["WorkloadTrace"]


@dataclass
class WorkloadTrace:
    """An append-only log of access descriptors with windowed reads.

    Attributes
    ----------
    capacity:
        Maximum retained events; older events are dropped FIFO, so the
        trace is a sliding window over the recent workload (adaptation
        should chase the present, not the whole history).

    The statistics aggregate is folded lazily, so :meth:`record` only
    appends: :meth:`statistics` folds the events recorded since the last
    call.  The first ``_folded`` retained events are in the aggregate;
    evicting one of them subtracts it, evicting a pending one only moves
    the cursor.
    """

    capacity: int = 10_000
    _events: deque[AccessDescriptor] = field(default_factory=deque)
    _dropped: int = 0
    _stats: AttributeStatistics | None = None
    _folded: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise WorkloadError(f"capacity must be >= 1, got {self.capacity}")

    def record(self, event: AccessDescriptor) -> None:
        """Append one access event, evicting the oldest beyond capacity."""
        self._events.append(event)
        if len(self._events) > self.capacity:
            evicted = self._events.popleft()
            self._dropped += 1
            if self._folded:
                self._folded -= 1
                self._stats.forget(evicted)  # type: ignore[union-attr]

    def _newest(self, count: int) -> list[AccessDescriptor]:
        """The *count* most recent events, oldest first."""
        newest = list(islice(reversed(self._events), count))
        newest.reverse()
        return newest

    def window(self, last: int | None = None) -> Sequence[AccessDescriptor]:
        """The most recent *last* events (all retained events by default)."""
        if last is None:
            return tuple(self._events)
        if last < 0:
            raise WorkloadError(f"last must be >= 0, got {last}")
        return tuple(self._newest(last))

    def statistics(self, schema: Schema) -> AttributeStatistics:
        """``AttributeStatistics.from_events(schema, self.window())``.

        Folds only the events recorded since the last call and returns
        a copy of the running aggregate.  An event touching an attribute
        outside *schema* raises the :class:`WorkloadError` that
        ``from_events`` raises; it stays pending until it is evicted.
        """
        if self._stats is None or self._stats.schema != schema:
            self._stats = AttributeStatistics(schema=schema)
            self._folded = 0
        for event in self._newest(len(self._events) - self._folded):
            self._stats.observe(event)
            self._folded += 1
        return self._stats.copy()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_recorded(self) -> int:
        """Events ever recorded (including dropped ones)."""
        return len(self._events) + self._dropped

    def read_fraction(self) -> float:
        """Fraction of retained events that are reads (1.0 when empty)."""
        if not self._events:
            return 1.0
        reads = sum(1 for event in self._events if event.kind is AccessKind.READ)
        return reads / len(self._events)

    def record_centric_fraction(self) -> float:
        """Fraction of retained events with the record-centric shape."""
        if not self._events:
            return 0.0
        hits = sum(1 for event in self._events if event.is_record_centric)
        return hits / len(self._events)

    def attribute_centric_fraction(self) -> float:
        """Fraction of retained events with the attribute-centric shape."""
        if not self._events:
            return 0.0
        hits = sum(1 for event in self._events if event.is_attribute_centric)
        return hits / len(self._events)

    def clear(self) -> None:
        """Forget everything."""
        self._events.clear()
        self._dropped = 0
        self._stats = None
        self._folded = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AccessDescriptor]:
        return iter(self._events)

"""Hierarchical tracing on the simulated cycle timeline.

A :class:`Tracer` records **spans** (query -> operator -> kernel / PCIe
burst / WAL append / reorganization step) and **instant events** (fault
injections, staging hits and evictions) stamped with the simulated
cycle count of the :class:`~repro.hardware.event.PerfCounters` in play
— never wall-clock.  A span's duration is therefore exactly the cycles
the instrumented region charged, and the whole trace composes on the
same timeline every cost model already shares.

The layer's hard contract is **zero observer effect**: attaching a
tracer must not change a single simulated cycle.  The tracer only ever
*reads* ``counters.cycles``; it never charges, never draws randomness,
and every instrumentation hook in the codebase is a no-op when the
platform carries no tracer.  ``tests/obs/test_zero_observer.py`` pins
this by running the Figure 2 drivers traced and untraced and comparing
``PerfCounters.snapshot()`` byte for byte.

Tracing is enabled per platform, by assignment
(``platform.tracer = Tracer()``); there is no process-wide default, so
two platforms in one process never share an observer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ExecutionError

__all__ = [
    "LAYER_QUERY",
    "LAYER_OPERATOR",
    "LAYER_KERNEL",
    "LAYER_PCIE",
    "LAYER_WAL",
    "LAYER_STAGING",
    "LAYER_REORG",
    "LAYER_RECOVERY",
    "LAYER_FAULT",
    "LAYER_FUSED",
    "Span",
    "InstantEvent",
    "Tracer",
    "nesting_violations",
]

#: Span/event categories, one per instrumented layer of the stack.
LAYER_QUERY = "query"
LAYER_OPERATOR = "operator"
LAYER_KERNEL = "kernel"
LAYER_PCIE = "pcie"
LAYER_WAL = "wal"
LAYER_STAGING = "staging"
LAYER_REORG = "reorg"
LAYER_RECOVERY = "recovery"
LAYER_FAULT = "fault"
#: A compiled fused pipeline's span — its own layer (not "operator") so
#: ``explain()``'s per-layer attribution shows exactly how much of a
#: query ran fused and what the fusion win was.
LAYER_FUSED = "fused-pipeline"


@dataclass
class Span:
    """One traced region of the simulated timeline.

    ``begin`` and ``end`` are simulated cycle counts read from the
    query's :class:`~repro.hardware.event.PerfCounters` at entry and
    exit; ``end`` is ``None`` while the span is open.  ``attrs`` carries
    structured annotations (HyPE's device choice, transferred bytes,
    WAL batch sizes, ...) and ``children`` the nested spans.
    """

    name: str
    category: str
    begin: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def cycles(self) -> float:
        """Inclusive duration in simulated cycles (0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.begin

    @property
    def self_cycles(self) -> float:
        """Duration minus the children's durations (own attribution)."""
        return self.cycles - sum(child.cycles for child in self.children)

    def walk(self) -> Iterator["Span"]:
        """Depth-first iterator over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (fault injection, staging hit/eviction)."""

    name: str
    category: str
    ts: float
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans and instant events for one simulated run.

    Spans nest strictly: :meth:`begin` pushes onto a stack, :meth:`end`
    must pop the same span (the :meth:`span` context manager guarantees
    this even when the instrumented region raises).  Timestamps come
    from the ``counters`` argument of each call — the tracer never
    advances the clock itself, which is the zero-observer-effect
    contract.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.events: list[InstantEvent] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, category: str, counters, **attrs) -> Span:
        """Open a span at the counters' current simulated cycle."""
        span = Span(name=name, category=category, begin=counters.cycles, attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, counters) -> Span:
        """Close *span* at the counters' current simulated cycle.

        Spans must close innermost-first; closing anything but the top
        of the stack is an instrumentation bug and raises.
        """
        if not self._stack or self._stack[-1] is not span:
            raise ExecutionError(
                f"span {span.name!r} is not the innermost open span; "
                "spans must close innermost-first"
            )
        self._stack.pop()
        span.end = counters.cycles
        return span

    @contextmanager
    def span(self, name: str, category: str, counters, **attrs):
        """Context manager: open on entry, close on exit (even on error)."""
        opened = self.begin(name, category, counters, **attrs)
        try:
            yield opened
        finally:
            self.end(opened, counters)

    def instant(self, name: str, category: str, counters, **attrs) -> InstantEvent:
        """Record a zero-duration event at the current simulated cycle."""
        event = InstantEvent(
            name=name, category=category, ts=counters.cycles, attrs=dict(attrs)
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attrs) -> None:
        """Merge *attrs* into the innermost open span (no-op outside one)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def spans(self) -> Iterator[Span]:
        """Depth-first iterator over every recorded span."""
        for root in self.roots:
            yield from root.walk()

    def categories(self) -> set[str]:
        """Every distinct layer seen in spans and instant events."""
        seen = {span.category for span in self.spans()}
        seen.update(event.category for event in self.events)
        return seen


def nesting_violations(span: Span) -> list[str]:
    """Structural problems of a span tree (empty when well-formed).

    Checks, recursively: the span closed, children's cycle ranges lie
    within the parent's, siblings do not overlap and appear in timeline
    order.  This is the invariant the property tests pin — it holds by
    construction because all spans on one counters timeline open and
    close under a monotonically non-decreasing clock.
    """
    problems: list[str] = []
    if span.end is None:
        problems.append(f"{span.name}: span never closed")
        return problems
    if span.end < span.begin:
        problems.append(f"{span.name}: negative duration")
    previous_end = span.begin
    for child in span.children:
        if child.end is None:
            problems.append(f"{child.name}: child of {span.name} never closed")
            continue
        if child.begin < span.begin or child.end > span.end:
            problems.append(
                f"{child.name}: [{child.begin}, {child.end}] escapes parent "
                f"{span.name} [{span.begin}, {span.end}]"
            )
        if child.begin < previous_end:
            problems.append(
                f"{child.name}: begins at {child.begin}, before sibling "
                f"ended at {previous_end}"
            )
        previous_end = max(previous_end, child.end)
        problems.extend(nesting_violations(child))
    return problems

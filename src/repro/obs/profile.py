"""Query profiling: the ``explain(query)`` report and layer attribution.

Turns a traced run into the explanatory artifacts EXPERIMENTS.md used
to hand-write: an ASCII operator tree annotated with simulated cycles,
percent-of-total and the dominant
:class:`~repro.hardware.event.CostBreakdown` part (so claims like
"transfer: 83% of total" are *generated* from the trace), plus a
per-layer cycle attribution that sums each span's **self time** (its
duration minus its children's) under its layer category — the numbers
BENCH_obs.json tracks per push.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext
    from repro.obs.tracer import Span, Tracer

__all__ = ["explain", "render_span_tree", "layer_attribution"]

#: Span attributes surfaced inline in the profile tree, in print order.
_SHOWN_ATTRS = (
    "hype_choice",
    "hype_route",
    "served_by",
    "on_device",
    "placement",
    "bytes",
    "chunks",
    "records",
    "rows",
    "matches",
    "operands",
    "site",
    "outcome",
)


def _format_attrs(attrs: dict) -> str:
    """The span's interesting annotations as an inline suffix."""
    shown = [f"{key}={attrs[key]}" for key in _SHOWN_ATTRS if key in attrs]
    return f"  {{{', '.join(shown)}}}" if shown else ""


def render_span_tree(span: "Span", total: float, prefix: str = "") -> list[str]:
    """ASCII tree lines for *span* and its descendants.

    Each line shows the span name, its layer, its inclusive cycles and
    its share of *total* (the root's cycles), e.g.::

        device-sum(i_price) [operator] ........ 1.2e+08 cy  83.1%
        ├─ pcie-burst [pcie] ..................
        └─ gpu-reduce(i_price) [kernel] .......
    """
    share = span.cycles / total * 100.0 if total else 0.0
    label = f"{span.name} [{span.category}]"
    lines = [
        f"{prefix}{label:<48s} {span.cycles:14.0f} cy {share:5.1f}%"
        f"{_format_attrs(span.attrs)}"
    ]
    # Children are indented under box-drawing connectors; the prefix of
    # a child's own children continues the vertical rule.
    children = span.children
    for index, child in enumerate(children):
        last = index == len(children) - 1
        connector = "└─ " if last else "├─ "
        continuation = "   " if last else "│  "
        child_lines = render_span_tree(child, total)
        lines.append(f"{prefix}{connector}{child_lines[0]}")
        lines.extend(
            f"{prefix}{continuation}{line}" for line in child_lines[1:]
        )
    return lines


def layer_attribution(tracer: "Tracer") -> dict[str, float]:
    """Self-time cycles per layer category, over the whole trace.

    Every span contributes its duration *minus its children's* to its
    own category, so the attribution partitions the traced time with no
    double counting: the values sum to the root spans' total.
    """
    attribution: dict[str, float] = {}
    for span in tracer.spans():
        attribution[span.category] = (
            attribution.get(span.category, 0.0) + span.self_cycles
        )
    return attribution


def explain(ctx: "ExecutionContext", tracer: "Tracer | None" = None) -> str:
    """The profile report for a traced query context.

    Renders every root span of the context's tracer as an annotated
    operator tree, headed by the total simulated cost and the dominant
    :class:`~repro.hardware.event.CostBreakdown` part, and followed by
    the per-layer attribution table.  Raises when the context's
    platform has no tracer and none is supplied (nothing was traced —
    there is nothing to explain).
    """
    active = tracer if tracer is not None else ctx.platform.tracer
    if active is None:
        raise ValueError(
            "explain() needs a traced run: set platform.tracer "
            "before executing the query"
        )
    total = sum(root.cycles for root in active.roots)
    milliseconds = total / ctx.platform.cpu.frequency_hz * 1e3

    lines = [
        f"query profile: {total:.0f} simulated cycles "
        f"({milliseconds:.4f} ms on {ctx.platform.cpu.frequency_hz / 1e9:.1f} GHz host)"
    ]
    parts = ctx.breakdown.parts
    if parts:
        dominant = max(parts, key=parts.get)
        lines.append(
            f"dominant cost: {dominant} — "
            f"{ctx.breakdown.share(dominant) * 100.0:.1f}% of the breakdown total"
        )
    lines.append("")
    for root in active.roots:
        lines.extend(render_span_tree(root, total))
    events = len(active.events)
    if events:
        lines.append("")
        lines.append(f"instant events: {events} (faults, staging hits/evictions)")
    attribution = layer_attribution(active)
    if attribution:
        lines.append("")
        lines.append("per-layer attribution (self time):")
        for category, cycles in sorted(
            attribution.items(), key=lambda item: -item[1]
        ):
            share = cycles / total * 100.0 if total else 0.0
            lines.append(f"  {category:<12s} {cycles:14.0f} cy {share:5.1f}%")
    return "\n".join(lines)

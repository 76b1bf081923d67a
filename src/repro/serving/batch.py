"""The GPU batch path: K compatible device queries, one shared ride.

A warm full-column sum on the simulated device is dominated by fixed
costs: two kernel-launch latencies and one result copy's PCIe latency
dwarf the actual streaming time of a cached column.  Serial dispatch
pays those fixed costs **per query**; :func:`run_device_batch` pays
them **per batch**:

* every distinct operand column is served once
  (:meth:`~repro.staging.StagingManager.serve`): all misses ship in
  ONE coalesced PCIe burst — one link latency for the whole operand
  set;
* the reductions launch as ONE batched two-pass grid
  (:meth:`~repro.hardware.gpu.GPUModel.batched_reduction_cost` — two
  launch latencies total, streaming charged per distinct column);
* all K scalar answers return in ONE device→host copy.

The data plane is deliberately identical to the serial path: each
distinct column's answer accumulates ``float(np.sum(...))`` per
fragment in fragment order over the served arrays, exactly as
:func:`~repro.execution.device.device_sum_column` does — batching is a
cost-plane optimization, never a semantics change, and the serving
verifier byte-compares every batched answer against a serial replay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.layout.fragment import Fragment
from repro.layout.layout import Layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import ExecutionContext

__all__ = ["run_device_batch"]


def run_device_batch(
    layout: Layout, attributes: Sequence[str], ctx: "ExecutionContext"
) -> list[float]:
    """Run K full-column sums as one batched device dispatch.

    *attributes* names each query's target column (duplicates are the
    common case — repeated analytics on the hot column — and are what
    batching deduplicates).  Returns one answer per entry, in order.

    Cost plane: per **distinct** column, one staging lookup per
    fragment; all misses staged in one coalesced burst (falling back
    to one uncached burst of the same bytes when the replicas cannot
    be cached); one batched two-pass reduction for the whole set; one
    result copy carrying all K scalars.  Fault behaviour matches the
    serial path: the burst retries under ``ctx.retry`` and surviving
    faults propagate to the caller's fallback chain.
    """
    if not attributes:
        return []
    staging = ctx.platform.staging
    distinct = list(dict.fromkeys(attributes))
    with ctx.span(
        "device-batch-sum",
        "operator",
        queries=len(attributes),
        columns=len(distinct),
    ):
        requests: list[tuple[Fragment, str, int]] = []
        shapes: list[tuple[int, int]] = []
        result_width = 0
        for attribute in distinct:
            fragments = layout.fragments_for_attribute(attribute)
            if not fragments:
                continue
            width = fragments[0].schema.attribute(attribute).width
            requests.extend((fragment, attribute, width) for fragment in fragments)
            shapes.append((sum(fragment.filled for fragment in fragments), width))
            result_width += width * attributes.count(attribute)
        served, unstaged = staging.serve(requests, ctx)
        if unstaged:
            # The operand set cannot be cached even after eviction:
            # ship the same bytes in one uncached burst (same wire
            # time, no replicas installed for the next batch).
            staging.ship(unstaged, ctx)
        if shapes:
            with ctx.span(
                "gpu-batch-reduce", "kernel", columns=len(shapes)
            ):
                kernel_cost = ctx.platform.gpu.batched_reduction_cost(
                    shapes, ctx.counters
                )
                ctx.note("gpu-batch-reduce", kernel_cost)
        # Each distinct column is summed once, per fragment in fragment
        # order, exactly as the serial path accumulates it.
        sums = dict.fromkeys(distinct, 0.0)
        for fragment, attribute, __ in requests:
            values = served[(id(fragment), attribute)]
            if values is not None and len(values):
                sums[attribute] += float(np.sum(values))
        answers = [sums[attribute] for attribute in attributes]
        # All K scalars come home in one device->host copy.
        result_cost = staging.scheduler.transfer(
            max(result_width, 1), ctx.counters
        )
        ctx.note("result-copy", result_cost)
    return answers

"""Differential test: every device operator through ``StagingManager.serve``.

Each device operator used to hand-write its own serve-or-stage loop:
check residency, probe the staging cache, collect misses, stage them
in one burst, fall back when the replicas cannot be cached.  The
``legacy_*`` functions below are those loops, kept verbatim as the
oracle (with ``acquire`` and ``_staging_transfer`` spelled out, since
neither exists any more).  Hypothesis draws layouts mixing host,
device-resident, phantom and empty fragments, warm and cold caches,
capacities small enough to force the uncached, bounce-buffer and
``CapacityError`` paths, ``charge_transfer`` on and off, and armed
``pcie.transfer`` / ``device.alloc`` faults under a retry policy.  Two
identical worlds run the legacy and the current operator; answers,
counters, breakdown parts, cache stats, LRU order, device bytes and
raised errors must all agree.

Two differences are allowed: the batch path's uncached-burst retry
label (``pcie-transfer(batch)`` became the column names), and
``device_count_where`` raising its wrong-shape error after the burst
instead of before it (same type and message).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ExecutionError
from repro.execution.context import ExecutionContext
from repro.execution.device import (
    _chunked_reduction_cost,
    device_count_where,
    device_sum_column,
    is_device_resident,
)
from repro.execution.operators import (
    _positions_by_fragment,
    aggregate_reducer,
    combine_partials,
)
from repro.faults.injector import SITE_DEVICE_ALLOC, SITE_PCIE_TRANSFER, FaultInjector
from repro.faults.policy import RetryPolicy
from repro.fusion import Pipeline, compile_pipeline
from repro.fusion.device import run_fused_device
from repro.fusion.host import fused_reduce
from repro.fusion.oracle import (
    POSITION_WIDTH,
    gather_kernel_cycles,
    run_unfused_device,
    select_kernel_cycles,
)
from repro.hardware import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64, INT64
from repro.model.relation import Relation, RowRange
from repro.model.schema import Schema
from repro.obs.tracer import LAYER_FUSED
from repro.serving.batch import run_device_batch

ATTRIBUTES = ("key", "price")


# ----------------------------------------------------------------------
# The legacy operator bodies (the oracle)
# ----------------------------------------------------------------------
def legacy_acquire(staging, fragments, attribute, width, ctx):
    return staging.acquire_set(
        [(fragment, attribute, width) for fragment in fragments], ctx
    )


def legacy_staging_transfer(attribute, staged_bytes, ctx):
    scheduler = ctx.platform.staging.scheduler

    def attempt():
        return scheduler.transfer(staged_bytes, ctx.counters)

    if ctx.retry is not None:
        return ctx.retry.run(f"pcie-transfer({attribute})", attempt, ctx)
    return attempt()


def legacy_device_sum_column(layout, attribute, ctx, charge_transfer=True):
    fragments = layout.fragments_for_attribute(attribute)
    if not fragments:
        return 0.0
    staging = ctx.platform.staging
    width = fragments[0].schema.attribute(attribute).width
    with ctx.span(
        f"device-sum({attribute})",
        "operator",
        on_device=all(is_device_resident(fragment) for fragment in fragments),
    ):
        total = 0.0
        count = 0
        misses = []
        for fragment in fragments:
            count += fragment.filled
            if is_device_resident(fragment):
                if not fragment.is_phantom:
                    values = fragment.column(attribute)
                    total += float(np.sum(values)) if len(values) else 0.0
                continue
            entry = (
                staging.lookup(fragment, attribute, ctx.counters)
                if charge_transfer
                else None
            )
            if entry is not None:
                if entry.values is not None and len(entry.values):
                    total += float(np.sum(entry.values))
                continue
            if not fragment.is_phantom:
                values = fragment.column(attribute)
                total += float(np.sum(values)) if len(values) else 0.0
            misses.append(fragment)

        chunks = 1
        staged_bytes = sum(fragment.filled * width for fragment in misses)
        if staged_bytes and charge_transfer:
            entries = legacy_acquire(staging, misses, attribute, width, ctx)
            if entries is None:
                device = ctx.platform.device_memory
                buffer_bytes = min(staged_bytes, device.available)
                if buffer_bytes < width:
                    raise CapacityError(
                        f"device memory exhausted: {device.available} B free, "
                        f"cannot stage even one {width} B element of "
                        f"{attribute!r}"
                    )
                bounce = device.allocate(buffer_bytes, f"stage({attribute})")
                try:
                    chunks = math.ceil(staged_bytes / buffer_bytes)
                    cost = legacy_staging_transfer(attribute, staged_bytes, ctx)
                    ctx.note("pcie-transfer", cost)
                finally:
                    device.free(bounce)
        if count:
            with ctx.span(
                f"gpu-reduce({attribute})", "kernel", elements=count, chunks=chunks
            ):
                if chunks == 1:
                    kernel_cost = ctx.platform.gpu.reduction_cost(
                        count, width, ctx.counters
                    )
                else:
                    per_chunk = math.ceil(count / chunks)
                    kernel_cost = _chunked_reduction_cost(
                        ctx, count, per_chunk, width
                    )
                ctx.note(f"gpu-reduce({attribute})", kernel_cost)
        result_cost = ctx.platform.staging.scheduler.transfer(width, ctx.counters)
        ctx.note("result-copy", result_cost)
    return total


def legacy_device_count_where(
    layout, attribute, predicate, ctx, charge_transfer=True
):
    fragments = layout.fragments_for_attribute(attribute)
    if not fragments:
        return 0
    staging = ctx.platform.staging
    width = fragments[0].schema.attribute(attribute).width
    with ctx.span(f"device-count-where({attribute})", "operator"):
        matches = 0
        count = 0
        misses = []
        for fragment in fragments:
            count += fragment.filled
            entry = None
            if not is_device_resident(fragment):
                entry = (
                    staging.lookup(fragment, attribute, ctx.counters)
                    if charge_transfer
                    else None
                )
                if entry is None:
                    misses.append(fragment)
            if not fragment.is_phantom:
                values = (
                    entry.values
                    if entry is not None and entry.values is not None
                    else fragment.column(attribute)
                )
                if len(values):
                    mask = np.asarray(predicate(values), dtype=bool)
                    if mask.shape != values.shape:
                        raise ExecutionError(
                            f"predicate returned shape {mask.shape} for "
                            f"{values.shape} values"
                        )
                    matches += int(np.sum(mask))
        staged_bytes = sum(fragment.filled * width for fragment in misses)
        if staged_bytes and charge_transfer:
            entries = legacy_acquire(staging, misses, attribute, width, ctx)
            if entries is None:
                cost = legacy_staging_transfer(attribute, staged_bytes, ctx)
                ctx.note("pcie-transfer", cost)
        if count:
            with ctx.span(
                f"gpu-count-where({attribute})", "kernel", elements=count
            ):
                kernel_seconds = ctx.platform.gpu.streaming_kernel_seconds(
                    nbytes=count * width, ops=count * 2
                )
                kernel = (
                    ctx.platform.gpu.seconds_to_host_cycles(kernel_seconds)
                    + 2 * ctx.platform.gpu.launch_latency_cycles
                )
                ctx.charge(f"gpu-count-where({attribute})", kernel)
                ctx.counters.kernel_launches += 2
                ctx.counters.device_cycles += (
                    kernel_seconds * ctx.platform.gpu.clock_hz
                )
        result_cost = ctx.platform.staging.scheduler.transfer(8, ctx.counters)
        ctx.note("result-copy", result_cost)
    return matches


def legacy_sum_fragments(layout, attribute):
    total = 0.0
    for fragment in layout.fragments_for_attribute(attribute):
        if not fragment.is_phantom:
            values = fragment.column(attribute)
            total += float(np.sum(values)) if len(values) else 0.0
    return total


def legacy_run_device_batch(layout, attributes, ctx):
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
        requests = []
        shapes = []
        result_width = 0
        for attribute in distinct:
            fragments = layout.fragments_for_attribute(attribute)
            if not fragments:
                continue
            width = fragments[0].schema.attribute(attribute).width
            count = 0
            for fragment in fragments:
                count += fragment.filled
                if is_device_resident(fragment):
                    continue
                entry = staging.lookup(fragment, attribute, ctx.counters)
                if entry is None:
                    requests.append((fragment, attribute, width))
            shapes.append((count, width))
            result_width += width * attributes.count(attribute)
        if requests:
            entries = staging.acquire_set(requests, ctx)
            if entries is None:
                sizes = [
                    fragment.filled * width
                    for fragment, __, width in requests
                    if fragment.filled * width > 0
                ]

                def attempt():
                    return staging.scheduler.burst(sizes, ctx.counters)

                if ctx.retry is not None:
                    cost = ctx.retry.run("pcie-transfer(batch)", attempt, ctx)
                else:
                    cost = attempt()
                ctx.note("pcie-transfer", cost)
        if shapes:
            with ctx.span("gpu-batch-reduce", "kernel", columns=len(shapes)):
                kernel_cost = ctx.platform.gpu.batched_reduction_cost(
                    shapes, ctx.counters
                )
                ctx.note("gpu-batch-reduce", kernel_cost)
        answers = [legacy_sum_fragments(layout, attribute) for attribute in attributes]
        result_cost = staging.scheduler.transfer(
            max(result_width, 1), ctx.counters
        )
        ctx.note("result-copy", result_cost)
    return answers


def legacy_run_fused_device(plan, layout, ctx, charge_transfer=True):
    if layout.relation.row_count == 0:
        return plan.identity
    staging = ctx.platform.staging
    schema = layout.relation.schema
    widths = tuple(
        schema.attribute(attribute).width for attribute in plan.attributes
    )
    with ctx.span(
        f"fused({plan.describe()})",
        LAYER_FUSED,
        placement="device",
        rows=layout.relation.row_count,
        operands=len(plan.attributes),
    ):
        served = {}
        misses = []
        count = 0
        for attribute, width in zip(plan.attributes, widths):
            for fragment in layout.fragments_for_attribute(attribute):
                if attribute == plan.attributes[0]:
                    count += fragment.filled
                key = (id(fragment), attribute)
                if is_device_resident(fragment):
                    served[key] = (
                        None if fragment.is_phantom else fragment.column(attribute)
                    )
                    continue
                entry = (
                    staging.lookup(fragment, attribute, ctx.counters)
                    if charge_transfer
                    else None
                )
                if entry is not None:
                    served[key] = entry.values
                    continue
                served[key] = (
                    None if fragment.is_phantom else fragment.column(attribute)
                )
                misses.append((fragment, attribute, width))
        if misses and charge_transfer:
            entries = staging.acquire_set(misses, ctx)
            if entries is None:
                raise CapacityError(
                    f"device memory cannot hold the fused operand set of "
                    f"{plan.describe()} ({sum(f.filled * w for f, __, w in misses)}"
                    " B); a fused kernel needs every operand resident at launch"
                )
            for entry in entries:
                served[(id(entry.source), entry.attribute)] = entry.values
        if count:
            with ctx.span(
                f"gpu-fused({plan.describe()})",
                "kernel",
                elements=count,
                operands=len(plan.attributes),
            ):
                kernel_cost = ctx.platform.gpu.fused_pipeline_cost(
                    count,
                    widths,
                    ops_per_element=plan.ops_per_element,
                    counters=ctx.counters,
                )
                ctx.note(f"gpu-fused({plan.describe()})", kernel_cost)
        result_cost = staging.scheduler.transfer(8, ctx.counters)
        ctx.note("result-copy", result_cost)

        def values_of(fragment, attribute):
            return served[(id(fragment), attribute)]

        result, __ = fused_reduce(plan, layout, values_of)
    return result


def legacy_serve_column(layout, attribute, width, ctx, charge_transfer, staging):
    served = {}
    misses = []
    for fragment in layout.fragments_for_attribute(attribute):
        served[id(fragment)] = (
            None if fragment.is_phantom else fragment.column(attribute)
        )
        if is_device_resident(fragment):
            continue
        entry = (
            staging.lookup(fragment, attribute, ctx.counters)
            if charge_transfer
            else None
        )
        if entry is not None:
            served[id(fragment)] = entry.values
            continue
        misses.append(fragment)
    staged_bytes = sum(fragment.filled * width for fragment in misses)
    if staged_bytes and charge_transfer:
        entries = legacy_acquire(staging, misses, attribute, width, ctx)
        if entries is None:
            cost = legacy_staging_transfer(attribute, staged_bytes, ctx)
            ctx.note("pcie-transfer", cost)
        else:
            for entry in entries:
                served[id(entry.source)] = entry.values
    return served


def legacy_run_unfused_device(plan, layout, ctx, charge_transfer=True):
    if layout.relation.row_count == 0:
        return aggregate_reducer(plan.op)[1]
    if plan.filter is None and plan.op == "sum" and not plan.projects:
        return legacy_device_sum_column(
            layout, plan.aggregate_attribute, ctx, charge_transfer
        )
    if plan.filter is None:
        return legacy_aggregate_unfiltered(plan, layout, ctx, charge_transfer)
    return legacy_filtered(plan, layout, ctx, charge_transfer)


def legacy_aggregate_unfiltered(plan, layout, ctx, charge_transfer):
    gpu = ctx.platform.gpu
    staging = ctx.platform.staging
    attribute = plan.aggregate_attribute
    width = layout.relation.schema.attribute(attribute).width
    reducer, identity = aggregate_reducer(plan.op)
    with ctx.span(f"device-{plan.op}({attribute})", "operator"):
        served = legacy_serve_column(
            layout, attribute, width, ctx, charge_transfer, staging
        )
        partials = []
        counts = []
        count = 0
        for fragment in layout.fragments_for_attribute(attribute):
            count += fragment.filled
            values = served[id(fragment)]
            if values is None or len(values) == 0:
                continue
            partials.append(reducer(values))
            counts.append(len(values))
        if count:
            with ctx.span(f"gpu-reduce({attribute})", "kernel", elements=count):
                kernel_cost = gpu.reduction_cost(count, width, ctx.counters)
                ctx.note(f"gpu-reduce({attribute})", kernel_cost)
        result_cost = staging.scheduler.transfer(POSITION_WIDTH, ctx.counters)
        ctx.note("result-copy", result_cost)
    if not partials:
        return identity
    return combine_partials(plan.op, partials, counts)


def legacy_filtered(plan, layout, ctx, charge_transfer):
    gpu = ctx.platform.gpu
    staging = ctx.platform.staging
    scheduler = staging.scheduler
    schema = layout.relation.schema
    scan_width = schema.attribute(plan.scan_attribute).width
    agg_width = schema.attribute(plan.aggregate_attribute).width
    with ctx.span(
        f"device-unfused({plan.describe()})",
        "operator",
        rows=layout.relation.row_count,
    ):
        scan_served = legacy_serve_column(
            layout, plan.scan_attribute, scan_width, ctx, charge_transfer,
            staging,
        )
        mask_parts = []
        rows = 0
        for fragment in layout.fragments_for_attribute(plan.scan_attribute):
            rows += fragment.filled
            values = scan_served[id(fragment)]
            if values is None or len(values) == 0:
                continue
            fragment_mask = np.asarray(plan.filter.predicate(values), dtype=bool)
            mask_parts.append((fragment.region.rows.start, fragment_mask))
        positions = []
        for start, fragment_mask in mask_parts:
            positions.extend(
                int(index) + start for index in np.nonzero(fragment_mask)[0]
            )
        matches = len(positions)
        if rows:
            with ctx.span(
                f"gpu-select({plan.scan_attribute})", "kernel", elements=rows
            ):
                kernel = select_kernel_cycles(gpu, rows, scan_width, matches)
                ctx.charge(f"gpu-select({plan.scan_attribute})", kernel)
                ctx.counters.kernel_launches += 2
                ctx.counters.device_cycles += (
                    (kernel - 2 * gpu.launch_latency_cycles)
                    / gpu.host_frequency_hz
                ) * gpu.clock_hz
        if matches:
            down = scheduler.transfer(matches * POSITION_WIDTH, ctx.counters)
            ctx.note("positions-to-host", down)
            up = scheduler.transfer(matches * POSITION_WIDTH, ctx.counters)
            ctx.note("positions-to-device", up)
        agg_served = legacy_serve_column(
            layout, plan.aggregate_attribute, agg_width, ctx, charge_transfer,
            staging,
        )
        if matches:
            with ctx.span(
                f"gpu-gather({plan.aggregate_attribute})",
                "kernel",
                elements=matches,
            ):
                kernel = gather_kernel_cycles(gpu, matches, len(plan.projects))
                ctx.charge(f"gpu-gather({plan.aggregate_attribute})", kernel)
                ctx.counters.kernel_launches += 1
                ctx.counters.device_cycles += (
                    (kernel - gpu.launch_latency_cycles) / gpu.host_frequency_hz
                ) * gpu.clock_hz
            with ctx.span(
                f"gpu-reduce({plan.aggregate_attribute})",
                "kernel",
                elements=matches,
            ):
                kernel_cost = gpu.reduction_cost(matches, agg_width, ctx.counters)
                ctx.note(f"gpu-reduce({plan.aggregate_attribute})", kernel_cost)
        result_cost = scheduler.transfer(POSITION_WIDTH, ctx.counters)
        ctx.note("result-copy", result_cost)
        reducer, identity = aggregate_reducer(plan.op)
        partials = []
        counts = []
        for fragment, local in _positions_by_fragment(
            layout, plan.aggregate_attribute, positions
        ):
            values = agg_served[id(fragment)]
            if values is None:
                continue
            selected = values[np.asarray(local, dtype=np.int64)]
            for project in plan.projects:
                selected = np.asarray(project.fn(selected))
            partials.append(reducer(selected))
            counts.append(len(local))
    if plan.op == "sum" and not plan.projects:
        total = 0.0
        for partial in partials:
            total += float(partial)
        return total
    if not partials:
        return identity
    return combine_partials(plan.op, partials, counts)


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
PLANS = {
    "sum": Pipeline.scan("price").aggregate("sum"),
    "max": Pipeline.scan("price").aggregate("max"),
    "filtered-sum": Pipeline.scan("key")
    .filter(lambda values: values < 500)
    .aggregate("sum", on="price"),
    "filtered-mean": Pipeline.scan("key")
    .filter(lambda values: values % 3 == 0)
    .aggregate("mean", on="price"),
    "projected-count": Pipeline.scan("key")
    .filter(lambda values: values >= 250)
    .project(lambda values: values * 2.0)
    .aggregate("count", on="price"),
}
COMPILED = {name: compile_pipeline(plan) for name, plan in PLANS.items()}


@st.composite
def world_specs(draw):
    """A layout, cache state, capacity and fault schedule to run in."""
    rows = draw(st.integers(0, 96))
    layout = {}
    for attribute in ATTRIBUTES:
        kinds = draw(
            st.lists(
                st.sampled_from(("host", "device", "phantom", "empty")),
                min_size=1,
                max_size=4,
            )
        )
        filled = [kind for kind in kinds if kind != "empty"]
        if rows and not filled:
            kinds.append("host")
            filled.append("host")
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(0, rows),
                    min_size=max(len(filled) - 1, 0),
                    max_size=max(len(filled) - 1, 0),
                )
            )
        )
        bounds = [0, *cuts, rows]
        spans = iter(zip(bounds, bounds[1:]))
        pieces = []
        start = 0
        for kind in kinds:
            if kind == "empty":
                pieces.append((kind, start, start))
            else:
                start, stop = next(spans)
                pieces.append((kind, start, stop))
                start = stop
        layout[attribute] = pieces
    return {
        "rows": rows,
        "layout": layout,
        "seed": draw(st.integers(0, 2**16)),
        "warm": draw(st.lists(st.integers(0, 7), max_size=6)),
        # Small enough, often enough, to force every fallback path.
        "capacity": draw(st.one_of(st.none(), st.integers(0, 8 * rows + 16))),
        "free": draw(st.one_of(st.none(), st.integers(0, 8 * rows + 16))),
        "faults": draw(
            st.one_of(
                st.none(),
                st.tuples(
                    st.integers(0, 2**16),
                    st.sampled_from((0.0, 0.3, 0.8)),
                    st.sampled_from((0.0, 0.3, 0.8)),
                    st.integers(1, 4),
                ),
            )
        ),
    }


def build_world(spec):
    """Materialize *spec* on a fresh platform; returns (platform, layout, injector)."""
    platform = Platform.paper_testbed()
    schema = Schema.of(("key", INT64), ("price", FLOAT64))
    relation = Relation("t", schema, spec["rows"])
    rng = np.random.default_rng(spec["seed"])
    columns = {
        "key": rng.integers(0, 1_000, spec["rows"]).astype(np.int64),
        "price": rng.standard_normal(spec["rows"])
        * 10.0 ** rng.integers(-3, 7, spec["rows"]),
    }
    fragments = []
    for attribute, pieces in spec["layout"].items():
        for index, (kind, start, stop) in enumerate(pieces):
            space = (
                platform.device_memory if kind == "device" else platform.host_memory
            )
            fragment = Fragment(
                Region(RowRange(start, stop), (attribute,)),
                schema,
                None,
                space,
                label=f"{attribute}#{index}:{kind}",
                materialize=kind != "phantom",
            )
            if kind == "phantom":
                fragment.fill_phantom(stop - start)
            else:
                fragment.append_columns({attribute: columns[attribute][start:stop]})
            fragments.append(fragment)
    layout = Layout("t", relation, fragments)

    # Warm part of the cache, then squeeze the staging cache and the
    # device, then arm the faults: the run under test starts there.
    staging = platform.staging
    host = [
        (fragment, fragment.region.attributes[0], 8)
        for fragment in fragments
        if not is_device_resident(fragment) and fragment.filled
    ]
    if host:
        warm_ctx = ExecutionContext(platform)
        for index in spec["warm"]:
            staging.acquire_set([host[index % len(host)]], warm_ctx)
    staging.capacity_bytes = spec["capacity"]
    device = platform.device_memory
    if spec["free"] is not None and device.available > spec["free"]:
        device.allocate(device.available - spec["free"], "hog")
    injector = None
    if spec["faults"] is not None:
        seed, p_pcie, p_alloc, attempts = spec["faults"]
        injector = (
            FaultInjector(seed=seed)
            .arm(SITE_PCIE_TRANSFER, p_pcie)
            .arm(SITE_DEVICE_ALLOC, p_alloc)
        )
        injector.install(platform)
    return platform, layout, injector


def outcome(spec, run) -> dict[str, Any]:
    """Run *run(layout, ctx)* in a fresh world built from *spec*."""
    platform, layout, injector = build_world(spec)
    ctx = ExecutionContext(platform)
    if injector is not None:
        ctx.retry = RetryPolicy(max_attempts=spec["faults"][3], report=injector.report)
    result = error = None
    try:
        result = run(layout, ctx)
    except Exception as raised:  # compared, not swallowed
        error = (type(raised).__name__, str(raised))
    staging = platform.staging
    return {
        "result": (type(result).__name__, repr(result)),
        "error": error,
        "counters": ctx.counters.snapshot(),
        "parts": list(ctx.breakdown.parts.items()),
        "stats": staging.stats(),
        "lru": [(entry.source.label, entry.attribute) for entry in staging.cache],
        "device_used": platform.device_memory.used,
        "report": None if injector is None else injector.report.snapshot(),
    }


def assert_same(spec, legacy, current, batch=False):
    old = outcome(spec, legacy)
    new = outcome(spec, current)
    if batch:
        # The one allowed label change: an uncached batch burst now
        # retries under its column names, as acquire_set's burst does.
        for record in (old, new):
            record["parts"] = [
                (
                    "retry-backoff(pcie-transfer)"
                    if label.startswith("retry-backoff(pcie-transfer(")
                    else label,
                    cycles,
                )
                for label, cycles in record["parts"]
            ]
    assert new == old


SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@SETTINGS
@given(world_specs(), st.sampled_from(ATTRIBUTES), st.booleans())
def test_device_sum_column(spec, attribute, charge):
    assert_same(
        spec,
        lambda layout, ctx: legacy_device_sum_column(layout, attribute, ctx, charge),
        lambda layout, ctx: device_sum_column(layout, attribute, ctx, charge),
    )


@SETTINGS
@given(world_specs(), st.sampled_from(ATTRIBUTES), st.booleans(), st.integers(0, 1_000))
def test_device_count_where(spec, attribute, charge, threshold):
    def predicate(values):
        return values < threshold

    assert_same(
        spec,
        lambda layout, ctx: legacy_device_count_where(
            layout, attribute, predicate, ctx, charge
        ),
        lambda layout, ctx: device_count_where(
            layout, attribute, predicate, ctx, charge
        ),
    )


@SETTINGS
@given(world_specs(), st.sampled_from(ATTRIBUTES), st.booleans())
def test_device_count_where_wrong_shape_error(spec, attribute, charge):
    """Same error type and message; it may now surface after the burst."""

    def predicate(values):
        return values[:1] < 0

    spec = dict(spec, faults=None)  # a burst fault would pre-empt the error
    old = outcome(
        spec,
        lambda layout, ctx: legacy_device_count_where(
            layout, attribute, predicate, ctx, charge
        ),
    )
    new = outcome(
        spec,
        lambda layout, ctx: device_count_where(
            layout, attribute, predicate, ctx, charge
        ),
    )
    if old["error"] is not None and old["error"][0] == "ExecutionError":
        assert new["error"] == old["error"]
    else:
        assert new == old


@SETTINGS
@given(world_specs(), st.lists(st.sampled_from(ATTRIBUTES), max_size=6))
def test_run_device_batch(spec, attributes):
    assert_same(
        spec,
        lambda layout, ctx: legacy_run_device_batch(layout, attributes, ctx),
        lambda layout, ctx: run_device_batch(layout, attributes, ctx),
        batch=True,
    )


@SETTINGS
@given(world_specs(), st.sampled_from(sorted(COMPILED)), st.booleans())
def test_run_fused_device(spec, plan_name, charge):
    plan = COMPILED[plan_name]
    assert_same(
        spec,
        lambda layout, ctx: legacy_run_fused_device(plan, layout, ctx, charge),
        lambda layout, ctx: run_fused_device(plan, layout, ctx, charge),
    )


@SETTINGS
@given(world_specs(), st.sampled_from(sorted(COMPILED)), st.booleans())
def test_run_unfused_device(spec, plan_name, charge):
    plan = COMPILED[plan_name]
    assert_same(
        spec,
        lambda layout, ctx: legacy_run_unfused_device(plan, layout, ctx, charge),
        lambda layout, ctx: run_unfused_device(plan, layout, ctx, charge),
    )

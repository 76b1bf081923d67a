"""Relational operators with a data plane and a cost plane.

Every operator does two things at once:

* **data plane** — computes the correct answer from the fragments'
  numpy arrays (so tests can assert results, not just costs);
* **cost plane** — charges the execution context the cycles the access
  pattern would cost on the simulated platform, respecting the
  fragment's linearization (NSM scans are strided, DSM scans are
  sequential streams, point accesses are random) and the context's
  threading policy.

Join processing is deliberately absent: the paper excludes join costs
("we consider costs starting right after the output (i.e., sorted
position lists) of the last directly preceding join operator is
available"), so operators here accept position lists directly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.execution.context import ExecutionContext
from repro.hardware.event import Cycles
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.perf.cost_cache import (
    active_cost_cache,
    cache_usable,
    fragment_fingerprint,
    platform_fingerprint,
)

__all__ = [
    "sum_column",
    "aggregate_column",
    "aggregate_reducer",
    "combine_partials",
    "sum_at_positions",
    "materialize_rows",
    "filter_scan",
    "update_field",
    "column_scan_cost",
]

#: ALU cycles to add one value into an accumulator (scalar, no SIMD).
ADD_CYCLES_PER_VALUE: Cycles = 1.0
#: ALU cycles to copy one field during materialization.
COPY_CYCLES_PER_FIELD: Cycles = 2.0
#: ALU cycles to evaluate one predicate during a filter scan.
PREDICATE_CYCLES_PER_VALUE: Cycles = 2.0


def _is_row_major(fragment: Fragment) -> bool:
    """Whether consecutive bytes in the fragment belong to one tuplet."""
    if fragment.linearization is LinearizationKind.NSM:
        return True
    return (
        fragment.linearization is LinearizationKind.DIRECT
        and fragment.region.is_row
    )


def column_scan_cost(fragment: Fragment, attribute: str, ctx: ExecutionContext) -> tuple[Cycles, Cycles]:
    """(bandwidth-bound, compute) cycles of scanning one column of a fragment.

    DSM/direct columns stream contiguously; NSM columns are strided by
    the record width (the hardware pulls whole lines regardless, which
    is exactly the paper's misplacement penalty (ii): "unnecessary
    loading of additional data into the cache").

    The result is a pure function of the platform's model parameters
    and the fragment's geometry, so it is memoized in the process-wide
    :class:`~repro.perf.cost_cache.CostCache` — except while a fault
    injector is armed, when every costing recomputes (see
    docs/PERFORMANCE.md).
    """
    cache = active_cost_cache()
    key = None
    if cache is not None and cache_usable(ctx.platform):
        key = (
            "column-scan",
            platform_fingerprint(ctx.platform),
            fragment_fingerprint(fragment),
            attribute,
        )
        memoized = cache.get(key)
        if memoized is not None:
            return memoized
    model = ctx.platform.memory_model
    width = fragment.schema.attribute(attribute).width
    count = fragment.filled
    if count == 0:
        return 0.0, 0.0
    if _is_row_major(fragment):
        memory = model.strided(
            count=count,
            stride=fragment.schema.record_width,
            touched=width,
            footprint=fragment.nbytes,
        )
    else:
        # Compressed columns stream their (smaller) encoded footprint.
        memory = model.sequential(
            fragment.nbytes if fragment.is_compressed else count * width
        )
    compute = count * ADD_CYCLES_PER_VALUE
    if fragment.is_compressed and fragment.compression is not None:
        compute += count * fragment.compression.codec.decode_cycles_per_value
    if key is not None:
        cache.put(key, (memory, compute))
    return memory, compute


def sum_column(layout: Layout, attribute: str, ctx: ExecutionContext) -> float:
    """Attribute-centric aggregation: sum one attribute over all rows.

    This is the paper's Q2 (``SELECT sum(a) FROM R``), executed with the
    bulk processing model and the context's threading policy.
    """
    fragments = layout.fragments_for_attribute(attribute)
    total = 0.0
    memory: Cycles = 0.0
    compute: Cycles = 0.0
    for fragment in fragments:
        if not fragment.is_phantom:
            values = fragment.column(attribute)
            total += float(np.sum(values)) if len(values) else 0.0
        fragment_memory, fragment_compute = column_scan_cost(fragment, attribute, ctx)
        memory += fragment_memory
        compute += fragment_compute
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=memory,
        threads=ctx.threading.threads,
    )
    # The span wraps only the charge: all of the operator's simulated
    # time accrues at this single point, so the span's begin/end cycles
    # bracket exactly the operator's cost (zero observer effect).
    with ctx.span(f"sum({attribute})", "operator", rows=layout.relation.row_count):
        ctx.charge(f"sum({attribute})", cycles)
        ctx.counters.instructions += int(compute)
    return total


#: Supported aggregate names -> (numpy reducer, identity for empty input).
_AGGREGATES = {
    "sum": (np.sum, 0.0),
    "min": (np.min, None),
    "max": (np.max, None),
    "mean": (np.mean, None),
    "count": (len, 0),
}


def aggregate_reducer(op: str) -> tuple[Callable[..., Any], Any]:
    """The ``(reducer, identity-for-empty-input)`` pair behind *op*.

    Shared vocabulary between the unfused operators here and the fused
    pipelines in :mod:`repro.fusion` — both sides must reduce with the
    same numpy expression for byte-identical answers.
    """
    if op not in _AGGREGATES:
        raise ExecutionError(
            f"unknown aggregate {op!r}; choose from {sorted(_AGGREGATES)}"
        )
    return _AGGREGATES[op]


def combine_partials(
    op: str, partials: Sequence[Any], counts: Sequence[int]
) -> float | int | None:
    """Combine per-fragment aggregate partials into one answer.

    This is the (only) combine step of :func:`aggregate_column`, split
    out so the fused executors reproduce it expression-for-expression:
    a fused pipeline computes the *same* per-fragment partials in the
    same fragment order and must fold them with the same float
    operations, or results stop being byte-identical to the oracle.
    """
    identity = aggregate_reducer(op)[1]
    if not partials:
        return identity
    if op == "sum":
        return float(np.sum(partials))
    if op == "min":
        return float(np.min(partials))
    if op == "max":
        return float(np.max(partials))
    if op == "count":
        return int(np.sum(partials))
    # mean: combine partial means weighted by fragment sizes.
    total = sum(float(p) * c for p, c in zip(partials, counts))
    return total / sum(counts)


def aggregate_column(
    layout: Layout, attribute: str, op: str, ctx: ExecutionContext
) -> float | int | None:
    """Attribute-centric aggregation with a named reducer.

    ``op`` is one of ``sum | min | max | mean | count``.  The access
    pattern (and therefore the cost) is identical to :func:`sum_column`
    — one column scan; only the ALU combine differs.  Empty relations
    return the op's identity (None for min/max/mean).
    """
    reducer, __ = aggregate_reducer(op)
    fragments = layout.fragments_for_attribute(attribute)
    partials: list[Any] = []
    counts: list[int] = []
    memory: Cycles = 0.0
    compute: Cycles = 0.0
    for fragment in fragments:
        if not fragment.is_phantom and fragment.filled:
            values = fragment.column(attribute)
            partials.append(reducer(values))
            counts.append(fragment.filled)
        fragment_memory, fragment_compute = column_scan_cost(fragment, attribute, ctx)
        memory += fragment_memory
        compute += fragment_compute
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=memory,
        threads=ctx.threading.threads,
    )
    with ctx.span(f"{op}({attribute})", "operator", rows=layout.relation.row_count):
        ctx.charge(f"{op}({attribute})", cycles)
    return combine_partials(op, partials, counts)


#: An owner range: ``(start, stop, fragment)`` rows of one attribute.
OwnerRange = tuple[int, int, Fragment]


def _owner_ranges(
    layout: Layout, attributes: Sequence[str]
) -> dict[str, list[OwnerRange]]:
    """Per attribute, the disjoint row ranges each fragment owns, by start.

    This is the one routing rule of this module.  Where fragments
    overlap, the first one in insertion order owns the shared rows, as
    in :meth:`Layout.fragment_for`: a later fragment keeps only the
    rows no earlier fragment covers, possibly as several ranges.
    """
    owners: dict[str, list[OwnerRange]] = {name: [] for name in attributes}
    for fragment in layout.fragments:
        rows = fragment.region.rows
        for attribute in fragment.region.attributes:
            owned = owners.get(attribute)
            if owned is None:
                continue
            start, stop = rows.start, rows.stop
            if not owned or owned[-1][1] <= start:
                # Past every claimed row: the common, disjoint case.
                if start < stop:
                    owned.append((start, stop, fragment))
                continue
            index = bisect_right(owned, start, key=itemgetter(0))
            if index and owned[index - 1][1] > start:
                start = owned[index - 1][1]
            pieces: list[OwnerRange] = []
            for claimed_start, claimed_stop, __ in owned[index:]:
                if claimed_start >= stop:
                    break
                if claimed_start > start:
                    pieces.append((start, claimed_start, fragment))
                start = claimed_stop
            if start < stop:
                pieces.append((start, stop, fragment))
            if pieces:
                owned.extend(pieces)
                owned.sort(key=itemgetter(0))
    return owners


def _positions_by_fragment(
    layout: Layout, attribute: str, positions: Sequence[int]
) -> list[tuple[Fragment, list[int]]]:
    """Group global row positions by the fragment owning them for *attribute*.

    Fragments come in row order, local positions in list order; on an
    overlapping layout each position goes to its first-match owner only
    (see :func:`_owner_ranges`).
    """
    grouped: dict[int, tuple[Fragment, list[int]]] = {}
    for start, stop, fragment in _owner_ranges(layout, (attribute,))[attribute]:
        origin = fragment.region.rows.start
        local = [
            position - origin for position in positions if start <= position < stop
        ]
        if local:
            grouped.setdefault(id(fragment), (fragment, []))[1].extend(local)
    covered = sum(len(local) for __, local in grouped.values())
    if covered != len(positions):
        raise ExecutionError(
            f"{covered} of {len(positions)} positions routed; layout does not "
            "cover the position list"
        )
    return list(grouped.values())


def sum_at_positions(
    layout: Layout,
    attribute: str,
    positions: Sequence[int],
    ctx: ExecutionContext,
) -> float:
    """Record-centric aggregation: sum *attribute* over a position list.

    The positions are the sorted output of a preceding join (Figure 2's
    "sum prices of 150 items"); each one is a point access.
    """
    model = ctx.platform.memory_model
    total = 0.0
    latency: Cycles = 0.0
    compute: Cycles = 0.0
    for fragment, local in _positions_by_fragment(layout, attribute, positions):
        width = fragment.schema.attribute(attribute).width
        if not fragment.is_phantom:
            column = fragment.column(attribute)
            total += float(np.sum(column[np.asarray(local, dtype=np.int64)]))
        latency += model.random(
            count=len(local), touched=width, footprint=fragment.nbytes
        )
        compute += len(local) * ADD_CYCLES_PER_VALUE
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=0.0,
        threads=ctx.threading.threads,
        latency_bound_cycles=latency,
    )
    with ctx.span(
        f"sum({attribute})@positions", "operator", rows=len(positions)
    ):
        ctx.charge(f"sum({attribute})@{len(positions)}pos", cycles)
    return total


def materialize_rows(
    layout: Layout, positions: Sequence[int], ctx: ExecutionContext
) -> list[tuple[Any, ...]]:
    """Record-centric materialization of whole rows at *positions*.

    This is Figure 2's "materialize 150 customers": the SELECT * tail of
    Q1-style queries.  On an NSM layout each row costs one random record
    access; on a DSM(-emulated) layout it costs one random access *per
    attribute* — the factor that makes the row store win panel 1.

    Rows are copied with one gather per (owning fragment, attribute),
    never cell by cell.  Positions may repeat and come in any order.  A
    bad position list raises what :meth:`Layout.read_row` raises for
    its first bad cell in row-major order: :class:`LayoutError` for an
    uncovered cell (checked first), :class:`StorageError` for a row
    past its fragment's fill.
    """
    model = ctx.platform.memory_model
    names = layout.relation.schema.names
    rows = np.asarray(positions, dtype=np.int64)
    distinct = sorted(set(rows.tolist()))
    low, high = (distinct[0], distinct[-1]) if distinct else (0, -1)
    owners = _owner_ranges(layout, names)
    # Cost-only layouts have no payload, so no fill to check or read.
    phantom = any(fragment.is_phantom for fragment in layout.fragments)

    # Routing: per attribute, each owner range holding requested rows as
    # (fragment, indices of its positions, or None for all of them).
    claims: list[list[tuple[Fragment, np.ndarray | None]]] = []
    # id(fragment) -> [first touch as (position index, attribute index),
    # fragment, its owner ranges]
    touched: dict[int, list[Any]] = {}
    for attribute_index, attribute in enumerate(names):
        attribute_claims: list[tuple[Fragment, np.ndarray | None]] = []
        routed = 0
        unfilled = False
        for start, stop, fragment in owners[attribute]:
            if stop <= low or start > high:
                continue
            if start <= low and high < stop:
                selection, first, top = None, 0, high
                routed += len(rows)
            else:
                selection = np.flatnonzero((rows >= start) & (rows < stop))
                if not len(selection):
                    continue
                first, top = int(selection[0]), int(rows[selection].max())
                routed += len(selection)
            unfilled |= top >= fragment.region.rows.start + fragment.filled
            attribute_claims.append((fragment, selection))
            key = (first, attribute_index)
            entry = touched.setdefault(id(fragment), [key, fragment, set()])
            entry[0] = min(entry[0], key)
            entry[2].add((start, stop))
        if routed != len(rows) or (unfilled and not phantom):
            _raise_for_first_bad_cell(layout, positions)
        claims.append(attribute_claims)

    # Cost plane: one entry per fragment in first-touch order (position-
    # major, then schema order), charged once per distinct position.
    latency: Cycles = 0.0
    compute: Cycles = 0.0
    for __, fragment, ranges in sorted(touched.values(), key=itemgetter(0)):
        count = _count_within(distinct, ranges)
        if _is_row_major(fragment):
            # One random access pulls the whole tuplet.
            latency += model.random(
                count=count,
                touched=fragment.schema.record_width,
                footprint=fragment.nbytes,
            )
        else:
            # One random access per attribute of the fragment.
            for attribute in fragment.schema.names:
                width = fragment.schema.attribute(attribute).width
                latency += model.random(
                    count=count, touched=width, footprint=fragment.nbytes
                )
        compute += count * fragment.schema.arity * COPY_CYCLES_PER_FIELD

    # Data plane: one gather per claim, then rows zipped from columns.
    results: list[tuple[Any, ...]] = []
    if not phantom:
        columns = [
            _plain_values(
                len(rows),
                [
                    (selection, _gather(fragment, attribute, rows, selection))
                    for fragment, selection in attribute_claims
                ],
            )
            for attribute, attribute_claims in zip(names, claims)
        ]
        results = list(zip(*columns))

    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=0.0,
        threads=ctx.threading.threads,
        latency_bound_cycles=latency,
    )
    with ctx.span("materialize", "operator", rows=len(positions)):
        ctx.charge(f"materialize@{len(positions)}pos", cycles)
    return results


def _raise_for_first_bad_cell(layout: Layout, positions: Sequence[int]) -> None:
    """Raise the error of the first uncovered, else first unfilled, cell."""
    names = layout.relation.schema.names
    for position in positions:
        for attribute in names:
            layout.fragment_for(position, attribute)
    for position in positions:
        layout.read_row(position)


def _count_within(distinct: list[int], ranges: set[tuple[int, int]]) -> int:
    """How many of the sorted *distinct* positions fall in the union of *ranges*."""
    total = 0
    cursor = 0
    for start, stop in sorted(ranges):
        start = max(start, cursor)
        if start < stop:
            total += bisect_left(distinct, stop) - bisect_left(distinct, start)
            cursor = stop
    return total


def _gather(
    fragment: Fragment,
    attribute: str,
    rows: np.ndarray,
    selection: np.ndarray | None,
) -> np.ndarray:
    """*attribute* at the selected global *rows*, from one fragment.

    Compressed columns answer through ``decode_at``, so a point read
    never decodes the whole column.
    """
    local = (rows if selection is None else rows[selection]) - (
        fragment.region.rows.start
    )
    compressed = fragment.compression
    if compressed is None:
        return fragment.column(attribute)[local]
    return np.array(
        [compressed.decode_at(row) for row in local.tolist()],
        dtype=compressed.original_dtype,
    )


def _plain_values(
    count: int, parts: list[tuple[np.ndarray | None, np.ndarray]]
) -> list[Any]:
    """Scatter one attribute's gathered parts into position order.

    Values decode as :meth:`Fragment.read_field` decodes them: numpy
    scalars become Python numbers and ``S`` bytes UTF-8 text (``tolist``
    already strips the NUL padding).
    """
    if not parts:
        return []
    values = parts[0][1]
    if len(parts) > 1:
        values = np.empty(count, dtype=values.dtype)
        for selection, part in parts:
            values[selection] = part
    if values.dtype.kind == "S":
        return list(map(bytes.decode, values.tolist()))
    return values.tolist()


def filter_scan(
    layout: Layout,
    attribute: str,
    predicate: Callable[[np.ndarray], np.ndarray],
    ctx: ExecutionContext,
) -> list[int]:
    """Full scan of one attribute, returning matching global positions.

    *predicate* maps a value array to a boolean mask (vectorized, bulk
    processing model with late materialization — only positions are
    produced, not rows).
    """
    fragments = layout.fragments_for_attribute(attribute)
    matches: list[int] = []
    memory: Cycles = 0.0
    compute: Cycles = 0.0
    for fragment in fragments:
        if fragment.is_phantom:
            raise ExecutionError(
                f"{fragment.label}: filter_scan is data-dependent and cannot "
                "run on phantom fragments"
            )
        values = fragment.column(attribute)
        if len(values) == 0:
            continue
        mask = np.asarray(predicate(values), dtype=bool)
        if mask.shape != values.shape:
            raise ExecutionError(
                f"predicate returned shape {mask.shape} for {values.shape} values"
            )
        start = fragment.region.rows.start
        matches.extend(int(index) + start for index in np.nonzero(mask)[0])
        fragment_memory, __ = column_scan_cost(fragment, attribute, ctx)
        memory += fragment_memory
        compute += fragment.filled * PREDICATE_CYCLES_PER_VALUE
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=memory,
        threads=ctx.threading.threads,
    )
    with ctx.span(
        f"filter({attribute})", "operator", rows=layout.relation.row_count
    ):
        ctx.charge(f"filter({attribute})", cycles)
    return matches


def update_field(
    layout: Layout, position: int, attribute: str, value: Any, ctx: ExecutionContext
) -> None:
    """Point update of one field (the OLTP write path).

    Every fragment of the layout covering the cell is updated (an
    overlapping layout keeps replicas coherent by construction here;
    replication-based engines charge the extra writes).
    """
    model = ctx.platform.memory_model
    staging = ctx.platform.staging
    touched = 0
    with ctx.span(f"update({attribute})", "operator", position=position):
        for fragment in layout.fragments:
            if fragment.region.contains(position, attribute):
                local = position - fragment.region.rows.start
                fragment.update_field(local, attribute, value)
                # A write makes any staged device replica of this fragment
                # stale: drop it so the next device query re-stages (the
                # fragment's version bump catches missed paths as well).
                staging.invalidate_fragment(fragment)
                width = fragment.schema.attribute(attribute).width
                cycles = model.random(
                    count=1, touched=width, footprint=fragment.nbytes
                )
                ctx.charge(f"update({attribute})", cycles)
                ctx.counters.bytes_written += width
                touched += 1
    if touched == 0:
        raise ExecutionError(f"no fragment covers ({position}, {attribute!r})")

"""``materialize_rows`` as per-fragment gathers, checked against per-cell routing.

The reference below is the per-cell formulation the operator used to
have: it routes every (row, attribute) cell through
:meth:`Layout.fragment_for` for the cost plane and reads every row
through :meth:`Layout.read_row` for the data plane.  The gather form
must agree with it on rows, on the Python type of every value, on the
exact simulated cycles and on the error raised for a bad position list.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.reference_engine import ReferenceEngine
from repro.engines.hyper import HyperEngine
from repro.errors import ReproError
from repro.execution.context import ExecutionContext
from repro.execution.operators import (
    COPY_CYCLES_PER_FIELD,
    _is_row_major,
    _positions_by_fragment,
    materialize_rows,
    sum_at_positions,
)
from repro.fusion import Pipeline, compile_pipeline
from repro.fusion.oracle import aggregate_at_positions
from repro.hardware import Platform
from repro.layout.compression import CompressedColumn
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64, INT32, INT64, char
from repro.model.relation import Relation, RowRange
from repro.model.schema import Schema
from repro.workload import generate_items, item_schema


def per_cell_materialize(
    layout: Layout, positions: Sequence[int], ctx: ExecutionContext
) -> list[tuple[Any, ...]]:
    """The per-cell reference: one routing and one read per cell."""
    model = ctx.platform.memory_model
    schema = layout.relation.schema
    results: list[tuple[Any, ...]] = []
    latency = 0.0
    compute = 0.0
    fragment_positions: dict[int, tuple[Fragment, set[int]]] = {}
    for position in positions:
        for attribute in schema.names:
            fragment = layout.fragment_for(position, attribute)
            entry = fragment_positions.setdefault(id(fragment), (fragment, set()))
            entry[1].add(position)
    for fragment, rows in fragment_positions.values():
        count = len(rows)
        if _is_row_major(fragment):
            latency += model.random(
                count=count,
                touched=fragment.schema.record_width,
                footprint=fragment.nbytes,
            )
        else:
            for attribute in fragment.schema.names:
                width = fragment.schema.attribute(attribute).width
                latency += model.random(
                    count=count, touched=width, footprint=fragment.nbytes
                )
        compute += count * fragment.schema.arity * COPY_CYCLES_PER_FIELD
    if not any(fragment.is_phantom for fragment in layout.fragments):
        for position in positions:
            results.append(layout.read_row(position))
    cycles = ctx.platform.cpu.parallelize(
        compute_cycles=compute,
        memory_cycles=0.0,
        threads=ctx.threading.threads,
        latency_bound_cycles=latency,
    )
    with ctx.span("materialize", "operator", rows=len(positions)):
        ctx.charge(f"materialize@{len(positions)}pos", cycles)
    return results


def outcome(function, layout, positions, platform):
    """The observable result of one call.

    Either the rows, their value types, the ``memory_model.random``
    calls in order, the counters and the breakdown; or the error type
    and message.
    """
    model_type = type(platform.memory_model)
    random = model_type.random
    calls: list[dict[str, Any]] = []

    def recorded_random(model, **arguments):
        calls.append(arguments)
        return random(model, **arguments)

    model_type.random = recorded_random
    ctx = ExecutionContext(platform)
    try:
        rows = function(layout, positions, ctx)
    except ReproError as error:
        return type(error), str(error)
    finally:
        model_type.random = random
    types = [tuple(type(value) for value in row) for row in rows]
    return rows, types, calls, ctx.counters, dict(ctx.breakdown.parts)


# ----------------------------------------------------------------------
# Random layouts
# ----------------------------------------------------------------------
TYPES = (INT64, INT32, FLOAT64, char(1), char(3))
LETTERS = "abcé"


def cell_value(dtype, row: int, column: int, copy: int) -> Any:
    """A value distinct per cell and per copy, so misrouting shows."""
    if dtype is FLOAT64:
        return row / 4 + column + copy * 100.5
    if dtype.name.startswith("CHAR"):
        text = LETTERS[(row + copy) % 4] * (row % 3)
        while len(text.encode("utf-8")) > dtype.width:
            text = text[:-1]
        return text
    return row * 10 + column + copy * 1_000


@st.composite
def fragment_in(
    draw, relation, platform, rows: RowRange, attributes, copy: int, phantoms: bool
):
    """One fragment over ``rows x attributes``: partial, phantom or compressed."""
    region = Region(rows, tuple(attributes))
    linearization = (
        None
        if region.is_thin
        else draw(st.sampled_from((LinearizationKind.NSM, LinearizationKind.DSM)))
    )
    phantom = phantoms and draw(st.booleans())
    fragment = Fragment(
        region, relation.schema, linearization, platform.host_memory,
        label=f"f{copy}:{rows.start}-{rows.stop}:{','.join(attributes)}",
        materialize=not phantom,
    )
    capacity = region.row_count
    filled = capacity
    if draw(st.integers(0, 3)) == 0:
        filled = draw(st.integers(0, capacity))
    if phantom:
        fragment.fill_phantom(filled)
        return fragment
    schema = relation.schema
    fragment.append_rows([
        tuple(
            cell_value(
                schema.attribute(name).dtype, row, schema.position_of(name), copy
            )
            for name in attributes
        )
        for row in range(rows.start, rows.start + filled)
    ])
    if (
        region.is_column
        and not region.is_row
        and fragment.is_full
        and draw(st.booleans())
    ):
        fragment.compress()
    return fragment


@st.composite
def layouts(draw):
    dtypes = draw(st.lists(st.sampled_from(TYPES), min_size=1, max_size=4))
    schema = Schema.of(*((f"a{index}", dtype) for index, dtype in enumerate(dtypes)))
    row_count = draw(st.integers(0, 24))
    relation = Relation("r", schema, row_count)
    platform = Platform.paper_testbed()
    names = list(schema.names)
    phantoms = draw(st.integers(0, 4)) == 0
    fragments: list[Fragment] = []
    cuts = sorted(draw(st.sets(st.integers(1, max(row_count - 1, 1)), max_size=3)))
    bounds = [0, *[cut for cut in cuts if cut < row_count], row_count]
    for start, stop in zip(bounds, bounds[1:]):
        if start == stop:
            continue
        order = draw(st.permutations(names))
        split = draw(st.integers(1, len(order)))
        for group in (order[:split], order[split:]):
            if group:
                fragment = fragment_in(
                    relation, platform, RowRange(start, stop), group, 0, phantoms
                )
                fragments.append(draw(fragment))
    overlapping = row_count > 0 and draw(st.booleans())
    if overlapping:
        for copy in range(1, draw(st.integers(1, 3)) + 1):
            start = draw(st.integers(0, row_count - 1))
            stop = draw(st.integers(start + 1, row_count))
            group = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
            replica = draw(
                fragment_in(
                    relation, platform, RowRange(start, stop), group, copy, phantoms
                )
            )
            fragments.insert(draw(st.integers(0, len(fragments))), replica)
    layout = Layout("r/test", relation, fragments, allow_overlap=overlapping)
    return layout, platform


def position_lists(layout: Layout):
    """Position lists in range, out of range and on every fragment edge."""
    row_count = layout.relation.row_count
    inside = st.integers(0, max(row_count - 1, 0))
    anywhere = st.integers(-2, row_count + 2)
    edges = sorted(
        {
            edge
            for fragment in layout.fragments
            for start in (fragment.region.rows.start,)
            for stop in (fragment.region.rows.stop, start + fragment.filled)
            for edge in (start - 1, start, stop - 1, stop)
        }
        | {0}
    )
    return st.one_of(
        st.lists(inside, min_size=1, max_size=12),
        st.lists(anywhere, max_size=12),
        st.lists(st.sampled_from(edges), min_size=1, max_size=8),
        st.just(list(range(row_count))),
    )


class TestAgainstPerCellRouting:
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_rows_types_cycles_and_errors_agree(self, data):
        layout, platform = data.draw(layouts())
        positions = data.draw(position_lists(layout))
        expected = outcome(per_cell_materialize, layout, positions, platform)
        actual = outcome(materialize_rows, layout, positions, platform)
        assert actual == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_disjoint_position_groups_are_unchanged(self, data):
        """``sum_at_positions`` routing keeps its groups and their order."""
        layout, __ = data.draw(layouts())
        assume(not layout.allow_overlap and layout.relation.row_count)
        inside = st.integers(0, layout.relation.row_count - 1)
        positions = data.draw(st.lists(inside, max_size=12))
        for attribute in layout.relation.schema.names:
            expected = []
            for fragment in layout.fragments_for_attribute(attribute):
                rows = fragment.region.rows
                local = [p - rows.start for p in positions if rows.contains(p)]
                if local:
                    expected.append((fragment, local))
            assert _positions_by_fragment(layout, attribute, positions) == expected

    def test_overlap_goes_to_the_first_inserted_fragment(self, platform):
        relation = Relation("r", Schema.of(("a", INT64)), 6)
        main = Fragment.from_rows(
            Region(relation.rows, ("a",)), relation.schema, None,
            platform.host_memory, [(row,) for row in range(6)],
        )
        replica = Fragment.from_rows(
            Region(RowRange(2, 4), ("a",)), relation.schema, None,
            platform.host_memory, [(20,), (30,)],
        )
        layout = Layout("r", relation, [replica, main], allow_overlap=True)
        positions = [5, 3, 0, 2, 3]
        ctx = ExecutionContext(platform)
        assert materialize_rows(layout, positions, ctx) == [
            (5,), (30,), (0,), (20,), (30,)
        ]
        assert outcome(materialize_rows, layout, positions, platform) == outcome(
            per_cell_materialize, layout, positions, platform
        )


# ----------------------------------------------------------------------
# Guards: no per-cell routing, no whole-column decode for point reads
# ----------------------------------------------------------------------
def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_ten_thousand_rows_route_without_per_cell_calls(monkeypatch, platform):
    relation = Relation(
        "r", Schema.of(("a", INT64), ("b", FLOAT64), ("c", char(4))), 10_000
    )
    fragments = []
    for name in relation.schema.names:
        fragment = Fragment(
            Region(relation.rows, (name,)), relation.schema, None, platform.host_memory
        )
        dtype = relation.schema.attribute(name).dtype.numpy_dtype()
        fragment.append_columns({name: np.arange(10_000).astype(dtype)})
        fragments.append(fragment)
    layout = Layout("r", relation, fragments)
    routed = count_calls(monkeypatch, Layout, "fragment_for")
    read = count_calls(monkeypatch, Fragment, "read_field")
    rows = materialize_rows(layout, range(10_000), ExecutionContext(platform))
    assert len(rows) == 10_000 and rows[9_999] == (9_999, 9_999.0, "9999")
    assert routed == [] and read == []


def test_compressed_point_read_never_decodes_the_column(monkeypatch, platform):
    engine = HyperEngine(platform, chunk_rows=100, compress_frozen=True)
    engine.create("item", item_schema())
    rows = 500
    engine.load("item", {
        "i_id": np.arange(rows, dtype="<i8"),
        "i_im_id": (np.arange(rows) % 8).astype("<i4"),
        "i_name": np.full(rows, b"WIDGET", dtype="S6"),
        "i_data": np.full(rows, b"XY", dtype="S2"),
        "i_price": (np.arange(rows) % 49 + 1).astype("<f8"),
    })
    assert engine.reorganize("item", ExecutionContext(platform))
    layout = engine.managed("item").primary_layout
    assert sum(fragment.is_compressed for fragment in layout.fragments) >= 5
    positions = [3, 141, 59, 26]
    expected = [layout.read_row(position) for position in positions]
    decoded = count_calls(monkeypatch, CompressedColumn, "decode")
    assert engine.materialize("item", positions, ExecutionContext(platform)) == expected
    assert decoded == []


# ----------------------------------------------------------------------
# Position routing on overlapping layouts (sum_at_positions)
# ----------------------------------------------------------------------
def test_position_aggregates_route_overlaps_to_the_first_match(platform):
    engine = ReferenceEngine(platform)
    engine.create("item", item_schema())
    engine.load("item", generate_items(200))
    accelerated = engine.managed("item").layouts[1]
    covering = [
        fragment
        for fragment in accelerated.fragments
        if "i_id" in fragment.region.attributes
    ]
    assert len(covering) == 2  # a device replica ahead of the main column
    positions = [1, 2, 3]
    ctx = ExecutionContext(platform)
    assert sum_at_positions(accelerated, "i_id", positions, ctx) == 6.0
    plan = compile_pipeline(
        Pipeline.scan("i_id").filter(lambda values: values > 0).aggregate("max")
    )
    assert aggregate_at_positions(plan, accelerated, positions, ctx) == 3.0

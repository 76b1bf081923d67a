"""H2O's pool evaluation is the layout advisor's proposal.

``H2OEngine.evaluate_pool`` used to re-implement
:meth:`~repro.adapt.advisor.LayoutAdvisor.propose` with a projection
of DSM fat groups onto H2O's NSM-only abilities.  The advisor never
proposes a DSM fat group, so the projection could only relabel a
one-attribute NSM group as thin.  These tests keep the old loop as a
local oracle: on the item relation the proposals are equal, and on a
one-attribute relation ``reorganize`` leaves the same fragments.
"""

import numpy as np
import pytest

from repro.adapt.advisor import GroupProposal, LayoutProposal
from repro.engines.h2o import H2OEngine
from repro.execution import ExecutionContext
from repro.hardware.platform import Platform
from repro.layout.linearization import LinearizationKind
from repro.model.datatypes import FLOAT64
from repro.model.schema import Schema


def old_evaluate_pool(engine: H2OEngine, name: str) -> LayoutProposal:
    """The loop ``evaluate_pool`` ran before it delegated to the advisor."""
    managed = engine.managed(name)
    events = managed.trace.window()
    stats = managed.trace.statistics(managed.relation.schema)
    best = None
    for candidate in engine._advisor.candidates(managed.relation, stats):
        projected = tuple(
            GroupProposal(
                group.attributes,
                LinearizationKind.DIRECT
                if len(group.attributes) == 1
                or group.linearization is LinearizationKind.DIRECT
                else LinearizationKind.NSM,
            )
            for group in candidate
        )
        cost = engine._advisor.estimate(managed.relation, projected, events)
        if best is None or cost < best.estimated_cycles:
            best = LayoutProposal(groups=projected, estimated_cycles=cost)
    return best


def drive(engine, platform, name, attribute, workload):
    """Record a scan, point or mixed history against *name*."""
    ctx = ExecutionContext(platform)
    if workload in ("scan", "mixed"):
        for __ in range(30):
            engine.sum(name, attribute, ctx)
    if workload in ("point", "mixed"):
        for position in range(0, 400, 7):
            engine.materialize(name, [position], ctx)


def fragment_shapes(engine, name):
    layout = engine.layouts(name)[0]
    return [
        (fragment.region.attributes, fragment.linearization, fragment.filled)
        for fragment in layout.fragments
    ]


@pytest.mark.parametrize("workload", ["scan", "point", "mixed", "none"])
@pytest.mark.parametrize("hot_columns", [(), ("i_price",)])
def test_item_proposal_matches_old_loop(
    loaded_item_engine_factory, workload, hot_columns
):
    engine, platform = loaded_item_engine_factory(
        H2OEngine, hot_columns=hot_columns
    )
    drive(engine, platform, "item", "i_im_id", workload)
    assert engine.evaluate_pool("item") == old_evaluate_pool(engine, "item")


def single_column_engine(values):
    platform = Platform.paper_testbed()
    engine = H2OEngine(platform)
    engine.create("solo", Schema.of(("price", FLOAT64)))
    engine.load("solo", {"price": values})
    return engine, platform


@pytest.mark.parametrize("workload", ["scan", "point", "mixed", "none"])
def test_single_attribute_reorganize_matches_old_loop(workload):
    values = np.arange(512, dtype=np.float64) * 0.25
    new, new_platform = single_column_engine(values)
    old, old_platform = single_column_engine(values)
    drive(new, new_platform, "solo", "price", workload)
    drive(old, old_platform, "solo", "price", workload)

    proposal = new.evaluate_pool("solo")
    expected = old_evaluate_pool(old, "solo")
    if proposal != expected:
        # The advisor may keep the one group labelled NSM where the old
        # projection said thin; both build the same thin fragment.
        assert [g.attributes for g in proposal.groups] == [
            g.attributes for g in expected.groups
        ]
    # The old engine reorganizes through the old loop.
    old.evaluate_pool = lambda name: old_evaluate_pool(old, name)
    changed = new.reorganize("solo", ExecutionContext(new_platform))
    assert old.reorganize("solo", ExecutionContext(old_platform)) == changed
    assert fragment_shapes(new, "solo") == fragment_shapes(old, "solo")
    for fragment, twin in zip(
        new.layouts("solo")[0].fragments, old.layouts("solo")[0].fragments
    ):
        assert np.array_equal(fragment.column("price"), twin.column("price"))

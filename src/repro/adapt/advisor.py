"""Layout advisor: propose fragments from workload statistics.

This is the decision core shared by the responsive engines: given a
relation and recent workload statistics, propose a vertical grouping
and a linearization per group, by *estimating the workload's cost under
each candidate layout with the platform's analytic memory model* and
keeping the cheapest — H2O's "lazily applying a new layout after
evaluating alternative layouts from a pool", made explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import WorkloadError
from repro.execution.access import AccessDescriptor
from repro.adapt.statistics import AttributeStatistics
from repro.hardware.cache import AnalyticMemoryModel
from repro.layout.linearization import LinearizationKind
from repro.model.relation import Relation

__all__ = ["GroupProposal", "LayoutProposal", "LayoutAdvisor"]


@dataclass(frozen=True)
class GroupProposal:
    """One proposed vertical group and its linearization.

    ``LinearizationKind.DIRECT`` on a multi-attribute group means
    "split this group into one thin column per attribute"
    (DSM emulation); ``NSM``/``DSM`` mean one fat fragment.
    """

    attributes: tuple[str, ...]
    linearization: LinearizationKind


@dataclass(frozen=True)
class LayoutProposal:
    """A complete layout proposal with its estimated workload cost."""

    groups: tuple[GroupProposal, ...]
    estimated_cycles: float


class LayoutAdvisor:
    """Cost-based layout selection from a candidate pool.

    Candidates:

    * pure NSM (one fat fragment over the whole schema),
    * pure DSM-emulated (one thin column per attribute),
    * affinity-grouped PDSM at each of the advisor's thresholds
      (co-accessed groups become NSM fat fragments, singleton groups
      thin columns).
    """

    def __init__(
        self,
        model: AnalyticMemoryModel,
        thresholds: Sequence[float] = (0.5, 0.8),
    ) -> None:
        if not thresholds:
            raise WorkloadError("advisor needs at least one affinity threshold")
        self.model = model
        self.thresholds = tuple(thresholds)

    # ------------------------------------------------------------------
    # Cost estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        relation: Relation,
        groups: Sequence[GroupProposal],
        events: Sequence[AccessDescriptor],
    ) -> float:
        """Estimated cycles to serve *events* under the proposed layout.

        Point events (row_count below 1% of the relation) are priced as
        random accesses; scans as strided/sequential streams — the same
        formulas the operators charge, so the advisor optimizes the
        measure the benchmarks report.
        """
        schema = relation.schema
        owner: dict[str, GroupProposal] = {}
        for group in groups:
            for attribute in group.attributes:
                owner[attribute] = group
        missing = set(schema.names) - set(owner)
        if missing:
            raise WorkloadError(f"proposal does not cover attributes {sorted(missing)}")

        total = 0.0
        for event in events:
            selectivity = (
                event.row_count / relation.row_count if relation.row_count else 0.0
            )
            point = selectivity <= 0.01
            touched_groups = {id(owner[a]): owner[a] for a in event.attributes}
            for group in touched_groups.values():
                touched = [a for a in event.attributes if owner[a] is group]
                group_schema = schema.project(group.attributes)
                group_bytes = relation.row_count * group_schema.record_width
                if group.linearization is LinearizationKind.DIRECT:
                    # One thin column per attribute.
                    for attribute in touched:
                        width = schema.attribute(attribute).width
                        column_bytes = relation.row_count * width
                        if point:
                            total += self.model.random(
                                event.row_count, width, column_bytes
                            )
                        else:
                            total += self.model.sequential(
                                event.row_count * width
                            )
                elif group.linearization is LinearizationKind.NSM:
                    if point:
                        total += self.model.random(
                            event.row_count, group_schema.record_width, group_bytes
                        )
                    else:
                        for attribute in touched:
                            total += self.model.strided(
                                event.row_count,
                                group_schema.record_width,
                                schema.attribute(attribute).width,
                                group_bytes,
                            )
                else:  # DSM fat fragment: contiguous columns in one block
                    for attribute in touched:
                        width = schema.attribute(attribute).width
                        if point:
                            total += self.model.random(
                                event.row_count, width, group_bytes
                            )
                        else:
                            total += self.model.sequential(event.row_count * width)
        return total

    # ------------------------------------------------------------------
    # Proposal
    # ------------------------------------------------------------------
    def candidates(
        self, relation: Relation, stats: AttributeStatistics
    ) -> list[tuple[GroupProposal, ...]]:
        """The candidate pool for *relation* under *stats*."""
        names = relation.schema.names
        pool: list[tuple[GroupProposal, ...]] = [
            (GroupProposal(names, LinearizationKind.NSM),),
            (GroupProposal(names, LinearizationKind.DIRECT),),
        ]
        for threshold in self.thresholds:
            groups = stats.affinity_groups(threshold)
            proposal = tuple(
                GroupProposal(
                    group,
                    LinearizationKind.NSM if len(group) > 1 else LinearizationKind.DIRECT,
                )
                for group in groups
            )
            if proposal not in pool:
                pool.append(proposal)
        return pool

    def propose(
        self,
        relation: Relation,
        stats: AttributeStatistics,
        events: Sequence[AccessDescriptor],
    ) -> LayoutProposal:
        """The cheapest candidate layout for the observed workload."""
        best: LayoutProposal | None = None
        for candidate in self.candidates(relation, stats):
            cost = self.estimate(relation, candidate, events)
            if best is None or cost < best.estimated_cycles:
                best = LayoutProposal(groups=candidate, estimated_cycles=cost)
        assert best is not None  # pool is never empty
        return best

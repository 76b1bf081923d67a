"""H2O (Alagiannis, Idreos & Ailamaki, 2014): a hands-free adaptive store.

"Each fragment is per default a fat fragment linearized using
NSM-fixed.  However, if the number of attributes of a sub-relation is
set to one, the fragment becomes a thin fragment that is directly
linearized. ... Layouts in H2O are responsive to changes in the
workload during runtime by lazily applying a new layout after
evaluating alternative layouts from a pool."

Classification targets (Table 1): single layout, weak flexible,
responsive, Host + Host centralized, variable NSM-fixed partially
DSM-emulated, no scheme, CPU, HTAP.

The pool evaluation is implemented literally: H2O asks the
:class:`~repro.adapt.advisor.LayoutAdvisor` (whose candidates are pure
NSM, pure DSM-emulation, and affinity-grouped hybrids) to cost every
candidate against the recorded trace and lazily applies the winner.
Because H2O's fat fragments are NSM-only (unlike HYRISE's), its
multi-attribute groups always come out NSM-fixed and its singletons
thin — the paper's "partially DSM-emulated" signature.
"""

from __future__ import annotations

import numpy as np

from repro.adapt.advisor import LayoutAdvisor, LayoutProposal
from repro.adapt.reorganizer import reorganize_layout
from repro.engines.base import (
    EngineCapabilities,
    FragmentationChoice,
    MultiLayoutSupport,
    StorageEngine,
    WorkloadSupport,
    fill_fragment,
)
from repro.execution.context import ExecutionContext
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region
from repro.model.relation import Relation

__all__ = ["H2OEngine"]


class H2OEngine(StorageEngine):
    """Adaptive NSM groups with per-column DSM emulation."""

    name = "H2O"
    year = 2014

    def __init__(self, platform, hot_columns: tuple[str, ...] = ()) -> None:
        super().__init__(platform)
        #: Columns split out as thin fragments at load time (the state a
        #: scan-heavy history would have produced); adaptation revises it.
        self.hot_columns = hot_columns
        self._advisor = LayoutAdvisor(platform.memory_model)

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(
            fragmentation_choice=FragmentationChoice.VERTICAL,
            constrained_order=None,
            # H2O's fat fragments are NSM-only; DSM exists only as
            # emulation through thin single-attribute fragments.
            fat_formats=frozenset({LinearizationKind.NSM}),
            per_fragment_choice=False,
            multi_layout=MultiLayoutSupport.SINGLE,
            workload=WorkloadSupport.HTAP,
        )

    # ------------------------------------------------------------------
    def _build(
        self, relation: Relation, columns: dict[str, np.ndarray] | None
    ) -> list[Layout]:
        grouped = tuple(
            name for name in relation.schema.names if name not in self.hot_columns
        )
        fragments: list[Fragment] = []
        if grouped:
            region = Region(relation.rows, grouped)
            fragment = Fragment(
                region,
                relation.schema,
                None if region.is_thin else LinearizationKind.NSM,
                self.platform.host_memory,
                label=f"h2o:{relation.name}:group",
                materialize=columns is not None,
            )
            fill_fragment(fragment, columns)
            fragments.append(fragment)
        for name in self.hot_columns:
            if name not in relation.schema:
                continue
            region = Region(relation.rows, (name,))
            fragment = Fragment(
                region,
                relation.schema,
                None,
                self.platform.host_memory,
                label=f"h2o:{relation.name}:{name}",
                materialize=columns is not None,
            )
            fill_fragment(fragment, columns)
            fragments.append(fragment)
        return [Layout(f"{relation.name}/h2o", relation, fragments)]

    # ------------------------------------------------------------------
    # Responsive adaptation (pool evaluation)
    # ------------------------------------------------------------------
    def evaluate_pool(self, name: str) -> LayoutProposal:
        """Cost every candidate layout in the pool against the trace.

        The advisor's pool already fits H2O's abilities: its fat groups
        are NSM and its singletons thin.
        """
        managed = self.managed(name)
        trace = managed.trace
        return self._advisor.propose(
            managed.relation, trace.statistics(managed.relation.schema), trace
        )

    def reorganize(self, name: str, ctx: ExecutionContext) -> bool:
        """Lazily apply the pool's winning layout (False when unchanged)."""
        managed = self.managed(name)
        proposal = self.evaluate_pool(name)
        layout = managed.primary_layout
        current: set[tuple[tuple[str, ...], LinearizationKind]] = {
            (fragment.region.attributes, fragment.linearization)
            for fragment in layout.fragments
        }
        wanted: set[tuple[tuple[str, ...], LinearizationKind]] = set()
        for group in proposal.groups:
            if group.linearization is LinearizationKind.DIRECT and len(group.attributes) > 1:
                wanted.update(
                    ((name_,), LinearizationKind.DIRECT) for name_ in group.attributes
                )
            else:
                kind = (
                    LinearizationKind.DIRECT
                    if len(group.attributes) == 1
                    else group.linearization
                )
                wanted.add((group.attributes, kind))
        if current == wanted:
            return False
        reorganize_layout(layout, proposal, self.platform.host_memory, ctx)
        return True

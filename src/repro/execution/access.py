"""Access-pattern descriptors (challenge b.i of the paper's intro).

The paper's central dichotomy: *record-centric* access (small subset of
records, large subset of fields per record — OLTP) versus
*attribute-centric* access (large subset of records, small subset of
fields — OLAP).  :class:`AccessDescriptor` quantifies one operation on
both axes so workload statistics, the layout advisor and the adaptive
engines can react to the dichotomy numerically instead of by label.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import WorkloadError

__all__ = ["AccessKind", "AccessDescriptor"]


class AccessKind(enum.Enum):
    """Read/write distinction for workload statistics."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class AccessDescriptor:
    """One operation's footprint on a relation.

    Attributes
    ----------
    kind:
        Read or write.
    attributes:
        The attributes touched.
    row_count:
        Number of rows touched.
    relation_rows:
        Total rows of the relation at the time of access.
    relation_arity:
        Total attributes of the relation.
    """

    kind: AccessKind
    attributes: tuple[str, ...]
    row_count: int
    relation_rows: int
    relation_arity: int

    def __post_init__(self) -> None:
        if self.row_count < 0 or self.relation_rows < 0:
            raise WorkloadError("row counts must be >= 0")
        if self.relation_arity < 1:
            raise WorkloadError(
                f"relation arity must be >= 1, got {self.relation_arity}"
            )
        if not 1 <= len(self.attributes) <= self.relation_arity:
            raise WorkloadError(
                f"touched {len(self.attributes)} attributes of "
                f"{self.relation_arity}"
            )

    @property
    def row_selectivity(self) -> float:
        """Fraction of the relation's rows touched (0 on empty relations)."""
        if self.relation_rows == 0:
            return 0.0
        return min(1.0, self.row_count / self.relation_rows)

    @property
    def attribute_selectivity(self) -> float:
        """Fraction of the relation's attributes touched."""
        return len(self.attributes) / self.relation_arity

    @property
    def is_record_centric(self) -> bool:
        """Small row subset, large field subset (the paper's Q1 shape)."""
        return self.row_selectivity <= 0.01 and self.attribute_selectivity >= 0.5

    @property
    def is_attribute_centric(self) -> bool:
        """Large row subset, small field subset (the paper's Q2 shape)."""
        return self.row_selectivity >= 0.5 and self.attribute_selectivity <= 0.5

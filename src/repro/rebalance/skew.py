"""Skew detection over the executor's per-shard load counters.

The :class:`~repro.sharding.executor.ShardedExecutor` records one
``shard-load.<id>`` counter per shard into its optional
:class:`~repro.obs.metrics.MetricsRegistry` — rows served per
sub-query, the same figure the router's cost model prices.  The
:class:`SkewDetector` turns those monotone counters into *windows*: a
:meth:`~SkewDetector.snapshot` reports each live shard's load since
the previous snapshot, the max/mean ratio over them, and the
hottest/coldest shards — the whole input the rebalance planner needs.

Detection is observational: reading counters never charges a cycle,
exactly like the registry itself.  Planning stays free; only executing
a migration costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.sharding.executor import SHARD_LOAD_METRIC
from repro.sharding.placement import ShardMap

__all__ = ["SkewReport", "SkewDetector"]


@dataclass(frozen=True)
class SkewReport:
    """One load window over the live shards.

    Attributes
    ----------
    loads:
        shard id -> rows served in the window (live shards only;
        merged-away empty shards never appear).
    total / mean:
        Window totals; mean is per live shard.
    ratio:
        ``max(loads) / mean`` — the imbalance figure the planner and
        the bench gate both use.  1.0 when the window is empty.
    hottest / coldest:
        Shard ids with the extreme loads (lowest id wins ties).
    """

    loads: dict[int, float]
    total: float
    mean: float
    ratio: float
    hottest: int
    coldest: int


class SkewDetector:
    """Windows the per-shard load counters of one shard map.

    Parameters
    ----------
    metrics:
        The registry the executor records ``shard-load.<id>`` counters
        into.
    shard_map:
        Supplies the live-shard set (row counts and ids).
    threshold:
        Max/mean ratio above which :meth:`skewed` reports imbalance.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        shard_map: ShardMap,
        threshold: float = 1.25,
    ) -> None:
        if threshold < 1.0:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.metrics = metrics
        self.shard_map = shard_map
        self.threshold = threshold
        self._baseline: dict[str, float] = {}

    def snapshot(self, reset: bool = True) -> SkewReport:
        """The load window since the last (resetting) snapshot.

        Live shards with no recorded traffic count as zero load — an
        idle shard pulls the mean down, which is exactly what makes a
        hot neighbour look skewed.  With *reset* (the default) the
        window baseline advances so the next snapshot starts fresh.
        """
        loads: dict[int, float] = {}
        for shard in self.shard_map.shards:
            if not shard.row_count:
                continue
            name = f"{SHARD_LOAD_METRIC}.{shard.shard_id}"
            value = self.metrics.counter(name).value
            loads[shard.shard_id] = value - self._baseline.get(name, 0.0)
            if reset:
                self._baseline[name] = value
        total = sum(loads.values())
        mean = total / len(loads) if loads else 0.0
        if total > 0:
            hottest = max(loads, key=lambda sid: (loads[sid], -sid))
            coldest = min(loads, key=lambda sid: (loads[sid], sid))
            ratio = loads[hottest] / mean
        else:
            hottest = coldest = min(loads) if loads else -1
            ratio = 1.0
        return SkewReport(
            loads=loads,
            total=total,
            mean=mean,
            ratio=ratio,
            hottest=hottest,
            coldest=coldest,
        )

    def skewed(self, report: SkewReport) -> bool:
        """Whether *report*'s imbalance clears the detection threshold."""
        return report.ratio > self.threshold

"""SkewDetector: windows over the executor's shard-load counters."""

from __future__ import annotations

import pytest

from repro.rebalance import SkewDetector
from repro.sharding.executor import SHARD_LOAD_METRIC


def record(stack, shard_id: int, load: float) -> None:
    stack.metrics.counter(f"{SHARD_LOAD_METRIC}.{shard_id}").inc(load)


class TestSnapshot:
    def test_empty_window_reads_balanced(self, stack):
        report = stack(shard_count=4).skew.snapshot()
        assert report.total == 0
        assert report.ratio == 1.0

    def test_window_is_the_delta_since_last_snapshot(self, stack):
        built = stack(shard_count=4)
        record(built, 0, 300.0)
        record(built, 1, 100.0)
        first = built.skew.snapshot()
        assert first.loads[0] == 300.0
        assert first.hottest == 0
        # The baseline advanced: a fresh window starts from zero.
        record(built, 1, 50.0)
        second = built.skew.snapshot()
        assert second.loads == {0: 0.0, 1: 50.0, 2: 0.0, 3: 0.0}

    def test_idle_shards_count_as_zero_load(self, stack):
        built = stack(shard_count=4)
        record(built, 2, 400.0)
        report = built.skew.snapshot()
        # One hot shard over four live ones: max/mean is the shard count.
        assert report.ratio == pytest.approx(4.0)
        assert report.coldest != 2

    def test_non_resetting_snapshot_keeps_the_baseline(self, stack):
        built = stack(shard_count=2)
        record(built, 0, 10.0)
        peek = built.skew.snapshot(reset=False)
        again = built.skew.snapshot()
        assert peek.loads == again.loads

    def test_skewed_applies_the_threshold(self, stack):
        built = stack(shard_count=4)
        record(built, 0, 100.0)
        record(built, 1, 100.0)
        record(built, 2, 100.0)
        record(built, 3, 100.0)
        assert not built.skew.skewed(built.skew.snapshot())
        record(built, 0, 400.0)
        assert built.skew.skewed(built.skew.snapshot())

    def test_threshold_below_one_rejected(self, stack):
        built = stack()
        with pytest.raises(ValueError):
            SkewDetector(built.metrics, built.shard_map, threshold=0.5)


"""Cost-cache rules: keying, bounded LRU, fault bypass, freshness by key."""

import pytest

from repro.adapt.advisor import GroupProposal, LayoutProposal
from repro.adapt.reorganizer import reorganize_layout
from repro.execution.context import ExecutionContext
from repro.execution.operators import column_scan_cost, sum_column
from repro.faults.injector import SITE_PCIE_TRANSFER, FaultInjector
from repro.hardware import Platform
from repro.layout.fragment import Fragment
from repro.layout.layout import Layout
from repro.layout.linearization import LinearizationKind
from repro.layout.region import Region
from repro.model.datatypes import FLOAT64, INT64
from repro.model.relation import Relation
from repro.model.schema import Schema
from repro.perf.cost_cache import (
    CostCache,
    active_cost_cache,
    cache_usable,
    cost_cache_disabled,
    fragment_fingerprint,
    platform_fingerprint,
    set_cost_cache,
)


@pytest.fixture
def scoped_cache():
    """A fresh cache installed for one test, previous cache restored."""
    cache = CostCache()
    previous = set_cost_cache(cache)
    yield cache
    set_cost_cache(previous)


def make_layout(platform, rows=64):
    relation = Relation("t", Schema.of(("a", INT64), ("p", FLOAT64)), rows)
    data = [(i, float(i)) for i in range(rows)]
    fragment = Fragment.from_rows(
        Region.full(relation),
        relation.schema,
        LinearizationKind.NSM,
        platform.host_memory,
        data,
    )
    return Layout("t", relation, [fragment])


class TestCostCacheBasics:
    def test_get_put_roundtrip(self):
        cache = CostCache()
        assert cache.get("k") is None
        cache.put("k", (1.0, 2.0))
        assert cache.get("k") == (1.0, 2.0)
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
        }

    def test_bounded_lru_eviction(self):
        cache = CostCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert len(cache) == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            CostCache(capacity=0)

    def test_disabled_context(self, scoped_cache):
        with cost_cache_disabled():
            assert active_cost_cache() is None
        assert active_cost_cache() is scoped_cache


class TestFingerprints:
    def test_platform_fingerprint_stable_and_hashable(self, platform):
        first = platform_fingerprint(platform)
        assert first == platform_fingerprint(platform)
        hash(first)

    def test_fragment_fingerprint_tracks_fill(self, platform):
        relation = Relation("t", Schema.of(("a", INT64), ("p", FLOAT64)), 16)
        fragment = Fragment(
            Region.full(relation),
            relation.schema,
            LinearizationKind.NSM,
            platform.host_memory,
        )
        fragment.append_rows([(0, 0.0)])
        before = fragment_fingerprint(fragment)
        fragment.append_rows([(1, 1.1)])
        assert fragment_fingerprint(fragment) != before

    def test_injector_arming_is_invisible_to_fingerprint(self, platform):
        # The injector is excluded from the key: arming bypasses the
        # cache wholesale rather than forking the key space.
        before = platform_fingerprint(platform)
        platform.injector = FaultInjector(seed=3).arm(SITE_PCIE_TRANSFER, 1.0)
        assert platform_fingerprint(platform) == before


class TestFaultBypass:
    def test_cache_usable_without_injector(self, platform):
        platform.injector = None
        assert cache_usable(platform)

    def test_armed_injector_bypasses(self, platform):
        platform.injector = FaultInjector(seed=3).arm(SITE_PCIE_TRANSFER, 0.5)
        assert not cache_usable(platform)

    def test_disarmed_injector_allows_cache(self, platform):
        platform.injector = FaultInjector(seed=3)  # nothing armed
        assert cache_usable(platform)

    def test_exhausted_spec_reenables_cache(self, platform, scoped_cache):
        platform.injector = FaultInjector(seed=3).arm(
            SITE_PCIE_TRANSFER, 1.0, max_faults=1
        )
        assert not cache_usable(platform)
        counters = None
        with pytest.raises(Exception):
            platform.injector.check(SITE_PCIE_TRANSFER, counters)
        assert cache_usable(platform)  # spec exhausted: memoization back on

    def test_armed_run_never_touches_cache(self, platform, scoped_cache):
        layout = make_layout(platform)
        ctx = ExecutionContext(platform)
        platform.injector = FaultInjector(seed=3).arm(SITE_PCIE_TRANSFER, 0.5)
        column_scan_cost(layout.fragments[0], "p", ctx)
        column_scan_cost(layout.fragments[0], "p", ctx)
        assert scoped_cache.stats()["entries"] == 0
        assert scoped_cache.hits == 0


class TestOperatorMemoization:
    def test_second_costing_hits(self, platform, scoped_cache):
        layout = make_layout(platform)
        ctx = ExecutionContext(platform)
        cold = column_scan_cost(layout.fragments[0], "p", ctx)
        warm = column_scan_cost(layout.fragments[0], "p", ctx)
        assert warm == cold
        assert scoped_cache.hits == 1

    def test_reorganize_costs_match_uncached(self, scoped_cache):
        # The key covers fragment geometry, so a swap that changes it
        # needs no invalidation: entries priced on the old geometry can
        # never serve the new one.  Differential check against a run
        # that never memoizes.
        def scan_reorganize_scan():
            platform = Platform.paper_testbed()
            layout = make_layout(platform)
            ctx = ExecutionContext(platform)
            sum_column(layout, "p", ctx)
            # NSM -> DSM over the same attributes: only the
            # linearization changes, so only the key can tell them apart.
            proposal = LayoutProposal(
                (GroupProposal(("a", "p"), LinearizationKind.DSM),), 0.0
            )
            reorganize_layout(layout, proposal, platform.host_memory, ctx)
            sum_column(layout, "p", ctx)
            return ctx.counters.snapshot()

        with cost_cache_disabled():
            uncached = scan_reorganize_scan()
        assert scan_reorganize_scan() == uncached
        assert scan_reorganize_scan() == uncached
        assert scoped_cache.hits > 0

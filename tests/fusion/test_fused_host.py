"""Fused host execution: byte-identity, zero-size contract, the win."""

import numpy as np
import pytest

from repro.errors import FusionError
from repro.execution.context import ExecutionContext
from repro.execution.bulk import BulkPipeline
from repro.fusion import Pipeline, compile_pipeline
from repro.fusion.host import run_fused_host, vector_pass
from repro.fusion.oracle import run_unfused_host
from repro.hardware import Platform
from repro.obs import LAYER_FUSED, Tracer

from tests.fusion.stores import (
    STORE_BUILDERS,
    dsm_store,
    fusion_relation,
)

OPS = ("sum", "min", "max", "mean", "count")


def probe(values):
    return values < 400


def filtered_plan(op):
    return compile_pipeline(
        Pipeline.scan("key").filter(probe).aggregate(op, on="price")
    )


@pytest.mark.parametrize("store_builder", sorted(STORE_BUILDERS), indirect=True)
@pytest.mark.parametrize("op", OPS)
class TestByteIdentity:
    def test_filtered(self, store_builder, op, relation, columns):
        plan = filtered_plan(op)
        fused = run_fused_host(
            plan,
            store_builder(Platform.paper_testbed(), relation, columns),
            ExecutionContext(Platform.paper_testbed()),
        )
        oracle = run_unfused_host(
            plan,
            store_builder(Platform.paper_testbed(), relation, columns),
            ExecutionContext(Platform.paper_testbed()),
        )
        assert fused == oracle  # byte-identical, not approx

    def test_filterless(self, store_builder, op, relation, columns):
        plan = compile_pipeline(Pipeline.scan("price").aggregate(op))
        fused = run_fused_host(
            plan,
            store_builder(Platform.paper_testbed(), relation, columns),
            ExecutionContext(Platform.paper_testbed()),
        )
        oracle = run_unfused_host(
            plan,
            store_builder(Platform.paper_testbed(), relation, columns),
            ExecutionContext(Platform.paper_testbed()),
        )
        assert fused == oracle


class TestProjections:
    @pytest.mark.parametrize("store_builder", sorted(STORE_BUILDERS), indirect=True)
    def test_projected_chain_matches_oracle(self, store_builder, relation, columns):
        plan = compile_pipeline(
            Pipeline.scan("key")
            .filter(probe)
            .project(np.sqrt, cycles_per_value=4.0, name="sqrt")
            .project(lambda v: v + 1.0, name="shift")
            .aggregate("sum", on="price")
        )
        fused = run_fused_host(
            plan,
            store_builder(Platform.paper_testbed(), relation, columns),
            ExecutionContext(Platform.paper_testbed()),
        )
        oracle = run_unfused_host(
            plan,
            store_builder(Platform.paper_testbed(), relation, columns),
            ExecutionContext(Platform.paper_testbed()),
        )
        assert fused == oracle


class TestZeroSize:
    @pytest.mark.parametrize("op", OPS)
    def test_empty_relation_charges_nothing(self, op, platform):
        relation = fusion_relation(0)
        store = dsm_store(platform, relation, {"key": np.empty(0, np.int64),
                                               "price": np.empty(0)})
        ctx = ExecutionContext(platform)
        plan = filtered_plan(op)
        assert run_fused_host(plan, store, ctx) == plan.identity
        assert ctx.cycles == 0.0
        assert ctx.counters.transfers == 0

    def test_selectivity_zero_matches_oracle(self, platform, relation, columns):
        plan = compile_pipeline(
            Pipeline.scan("key").filter(lambda v: v < -1).aggregate("sum", on="price")
        )
        store = dsm_store(platform, relation, columns)
        fused = run_fused_host(plan, store, ExecutionContext(platform))
        oracle = run_unfused_host(
            plan,
            dsm_store(Platform.paper_testbed(), relation, columns),
            ExecutionContext(Platform.paper_testbed()),
        )
        assert fused == oracle == 0.0


class TestCostPlane:
    def test_fused_beats_unfused_at_mid_selectivity(self, relation, columns):
        plan = filtered_plan("sum")
        fused_ctx = ExecutionContext(Platform.paper_testbed())
        run_fused_host(
            plan, dsm_store(fused_ctx.platform, relation, columns), fused_ctx
        )
        oracle_ctx = ExecutionContext(Platform.paper_testbed())
        run_unfused_host(
            plan, dsm_store(oracle_ctx.platform, relation, columns), oracle_ctx
        )
        assert fused_ctx.cycles < oracle_ctx.cycles

    def test_fused_span_carries_the_layer(self, relation, columns):
        tracer = Tracer()
        platform = Platform.paper_testbed()
        platform.tracer = tracer
        store = dsm_store(platform, relation, columns)
        run_fused_host(filtered_plan("sum"), store, ExecutionContext(platform))
        categories = {span.category for span in tracer.spans()}
        assert LAYER_FUSED in categories

    def test_phantom_filter_rejected(self, platform):
        from repro.bench.figure2 import build_column_store
        from repro.workload.tpcc import item_relation

        store = build_column_store(platform, item_relation(1_000))
        plan = compile_pipeline(
            Pipeline.scan("i_im_id").filter(probe).aggregate("sum", on="i_price")
        )
        with pytest.raises(FusionError):
            run_fused_host(plan, store, ExecutionContext(platform))


class TestBulkDeduplication:
    """Satellite: exactly one vector-at-a-time code path in the tree."""

    def test_bulk_collect_is_vector_pass(self, relation, columns):
        stages = [
            ("double", lambda v: v * 2.0, 1.0),
            ("clip", lambda v: np.minimum(v, 120.0), 2.0),
        ]
        direct_ctx = ExecutionContext(Platform.paper_testbed())
        direct = vector_pass(
            dsm_store(direct_ctx.platform, relation, columns),
            "price", stages, direct_ctx, 256,
        )
        bulk_ctx = ExecutionContext(Platform.paper_testbed())
        pipeline = BulkPipeline(
            dsm_store(bulk_ctx.platform, relation, columns), "price", 256
        )
        for name, fn, cycles_per_value in stages:
            pipeline.map(fn, name=name, cycles_per_value=cycles_per_value)
        wrapped = pipeline.collect(bulk_ctx)
        assert np.array_equal(direct, wrapped)
        assert bulk_ctx.cycles == direct_ctx.cycles  # same charge sequence

    def test_vector_size_shared_constant(self):
        from repro.execution import bulk
        from repro.fusion import host

        assert bulk.DEFAULT_VECTOR_SIZE is host.DEFAULT_VECTOR_SIZE

    def test_bad_vector_size_rejected(self, platform, relation, columns):
        with pytest.raises(FusionError):
            vector_pass(
                dsm_store(platform, relation, columns),
                "price", [], ExecutionContext(platform), 0,
            )

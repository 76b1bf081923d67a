"""Staging-cache benchmark CLI: ``python -m repro.staging``.

Writes ``BENCH_staging.json`` — the staging layer's acceptance record:

* the A9 ablation grid (cache capacity x OLTP share, whole-stream
  milliseconds / hit rates / PCIe megabytes per cell);
* a per-query **trajectory** of one HTAP stream: cumulative staging
  hit rate and cumulative cycles after every query, showing the cache
  warming up and transactional writes knocking replicas back out;
* the **warm-vs-cold** check: a repeated device sum must get at least
  3x cheaper once its column is staged (the cache's reason to exist);
* the **cold byte-identity** check: a single cold-cache device sum must
  charge *exactly* the cycles the pre-cache code charged — transfer +
  kernel + result copy, compared with ``==``, not a tolerance.

Both checks are asserted: the process exits non-zero when either
fails (through the shared :mod:`repro.verify` harness), so CI's
bench-smoke job gates on them.
"""

from __future__ import annotations

import argparse
from typing import Any, Sequence

from repro import verify

__all__ = ["main"]


def _warm_cold_record(row_count: int, warm_queries: int = 3) -> dict[str, Any]:
    """Cold staging query vs. warm repeats of the same column sum."""
    from repro.bench.figure2 import build_column_store
    from repro.execution.context import ExecutionContext
    from repro.execution.device import device_sum_column
    from repro.hardware.platform import Platform
    from repro.workload.tpcc import item_relation

    platform = Platform.paper_testbed()
    store = build_column_store(platform, item_relation(row_count))
    cold_ctx = ExecutionContext(platform)
    device_sum_column(store, "i_price", cold_ctx, charge_transfer=True)
    warm_ctx = ExecutionContext(platform)
    for __ in range(warm_queries):
        device_sum_column(store, "i_price", warm_ctx, charge_transfer=True)
    warm_per_query = warm_ctx.cycles / warm_queries
    ratio = cold_ctx.cycles / warm_per_query if warm_per_query else float("inf")
    return {
        "row_count": row_count,
        "cold_cycles": cold_ctx.cycles,
        "warm_cycles_per_query": warm_per_query,
        "warm_hits": warm_ctx.counters.staging_hits,
        "speedup": ratio,
        "passed": ratio >= 3.0 and warm_ctx.counters.staging_hits == warm_queries,
    }


def _cold_identity_record(row_count: int) -> dict[str, Any]:
    """One cold device sum vs. the legacy charge sequence, compared exactly.

    The pre-cache path charged, in order: one PCIe transfer of the
    column, the two-pass reduction, one result copy.  The staging path
    on a cold cache must reproduce that float for float — the burst of
    one transfer is the same expression as the old single transfer.
    """
    from repro.bench.figure2 import build_column_store
    from repro.execution.context import ExecutionContext
    from repro.execution.device import device_sum_column
    from repro.hardware.event import PerfCounters
    from repro.hardware.platform import Platform
    from repro.workload.tpcc import item_relation

    platform = Platform.paper_testbed()
    relation = item_relation(row_count)
    store = build_column_store(platform, relation)
    width = relation.schema.attribute("i_price").width
    ctx = ExecutionContext(platform)
    device_sum_column(store, "i_price", ctx, charge_transfer=True)

    legacy = PerfCounters()
    platform.interconnect.transfer_cost(row_count * width, legacy)
    platform.gpu.reduction_cost(row_count, width, legacy)
    platform.interconnect.transfer_cost(width, legacy)
    return {
        "row_count": row_count,
        "staging_cycles": ctx.cycles,
        "legacy_cycles": legacy.cycles,
        "passed": ctx.cycles == legacy.cycles,
    }


def _trajectory_record(
    row_count: int,
    queries: int,
    capacity_fraction: float = 2.0,
    oltp_fraction: float = 0.25,
) -> dict[str, Any]:
    """Per-query cumulative hit rate + cycles over one HTAP stream."""
    from repro.bench.ablations import _materialized_column_store
    from repro.execution.context import ExecutionContext
    from repro.execution.device import device_sum_column
    from repro.execution.operators import materialize_rows, update_field
    from repro.hardware.platform import Platform
    from repro.workload.htap import HTAPMix
    from repro.workload.queries import QueryShape

    platform = Platform.paper_testbed()
    store = _materialized_column_store(platform, row_count)
    working_set = sum(
        fragment.nbytes
        for fragment in store.fragments
        if fragment.schema.attribute(fragment.region.attributes[0])
        .dtype.numpy_dtype()
        .kind
        in ("i", "f")
    )
    platform.staging.capacity_bytes = int(capacity_fraction * working_set)
    mix = HTAPMix(store.relation, oltp_fraction=oltp_fraction, seed=97)
    ctx = ExecutionContext(platform)
    trajectory = []
    for index, spec in enumerate(mix.queries(queries)):
        if spec.shape is QueryShape.FULL_SUM:
            device_sum_column(store, spec.attributes[0], ctx, charge_transfer=True)
        elif spec.shape is QueryShape.POINT_UPDATE:
            position = spec.positions[0]
            update_field(store, position, spec.attributes[0], position % 97, ctx)
        else:
            materialize_rows(store, list(spec.positions), ctx)
        counters = ctx.counters
        lookups = counters.staging_hits + counters.staging_misses
        trajectory.append(
            {
                "query": index,
                "shape": spec.shape.name,
                "cumulative_hit_rate": (
                    counters.staging_hits / lookups if lookups else 0.0
                ),
                "cumulative_cycles": counters.cycles,
                "pcie_bytes": counters.pcie_bytes,
            }
        )
    return {
        "row_count": row_count,
        "capacity_fraction": capacity_fraction,
        "oltp_fraction": oltp_fraction,
        "queries": trajectory,
    }


def _body(options: argparse.Namespace) -> verify.Verdict:
    """Run the staging grid + checks; the record's verdict."""
    from repro.bench.ablations import SWEEPS, staging_cache_sweep

    if options.smoke:
        grid_kwargs = dict(SWEEPS["staging_cache"].smoke_kwargs)
        row_count = 200_000
        trajectory_queries = 16
    else:
        grid_kwargs = {}
        row_count = 2_000_000
        trajectory_queries = 32

    points = staging_cache_sweep(**grid_kwargs)
    warm_cold = _warm_cold_record(row_count)
    identity = _cold_identity_record(row_count)
    trajectory = _trajectory_record(
        grid_kwargs.get("row_count", 200_000), trajectory_queries
    )
    gates = {
        "warm_vs_cold": warm_cold["passed"],
        "cold_byte_identity": identity["passed"],
    }
    return verify.Verdict(
        metrics={
            "warm_cold_speedup": warm_cold["speedup"],
            "cold_cycles": warm_cold["cold_cycles"],
            "final_hit_rate": trajectory["queries"][-1]["cumulative_hit_rate"],
        },
        problems=[name for name, passed in gates.items() if not passed],
        tolerances={
            "warm_cold_speedup": {"rel": 0.15, "direction": "higher_better"},
            "cold_cycles": {"rel": 0.05, "direction": "lower_better"},
            "final_hit_rate": {"rel": 0.10, "direction": "higher_better"},
        },
        payload=dict(
            grid=[
                {"capacity_fraction": point.knob, **point.outcomes}
                for point in points
            ],
            trajectory=trajectory,
            warm_vs_cold=warm_cold,
            cold_byte_identity=identity,
        ),
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Run the staging grid + checks; write the record; 0 iff checks pass."""
    return verify.main(
        "staging",
        "repro.staging",
        "Benchmark the device staging cache and gate its invariants.",
        _body,
        argv,
        seeds=False,
    )


if __name__ == "__main__":  # pragma: no cover - exercised by CI bench-smoke
    raise SystemExit(main())

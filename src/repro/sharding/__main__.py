"""CLI: run the distributed chaos matrix, write BENCH_distributed.json.

``python -m repro.sharding`` drives
:func:`repro.sharding.verifier.run_chaos` through two experiments, each
cell run twice by :func:`repro.verify.run_cells` (the determinism gate):

1. **Verification matrix** — seeds × fault sites (defaults match the CI
   ``chaos-distributed`` job: seeds 5/23/101 × the three distributed
   sites), gating byte-identical answers vs. the single-node oracle, a
   balanced fault account and no data loss.

2. **Scale sweep** — nodes × shards × fault-rate at replication >= 2,
   gating that **zero** faults surface past the failover machinery
   (the data-safety guarantee: the coordinator never crashes and
   re-replication keeps every block a live replica).

Exits non-zero if any gate fails, so the CI job is a real check and
not just an artifact.
"""

from __future__ import annotations

import argparse
from typing import Any, Sequence

from repro import verify
from repro.sharding.verifier import CHAOS_SITES, run_chaos

__all__ = ["main"]

#: The scale sweep's (node_count, shard_count, fault_rate) grid.
SWEEP_GRID: tuple[tuple[int, int, float], ...] = (
    (3, 6, 0.02),
    (4, 8, 0.05),
    (5, 10, 0.05),
    (5, 15, 0.10),
)


def _sweep_cell(**kwargs: Any) -> dict[str, Any]:
    """One sweep run: the matrix gates plus zero surfaced faults."""
    record = run_chaos(**kwargs).to_dict()
    surfaced = record["resilience"].get("surfaced", 0)
    if surfaced:
        record["problems"].append(f"{surfaced:.0f} faults surfaced")
    return record


def _body(options: argparse.Namespace) -> verify.Verdict:
    """Matrix + sweep; the record's metrics and payload."""
    sizing = dict(
        query_count=16 if options.smoke else 48,
        row_count=512 if options.smoke else 2048,
    )
    cells, problems = verify.run_cells(
        (
            f"seed={seed} site={site}",
            lambda seed=seed, site=site: run_chaos(
                seed=seed, sites=(site,), **sizing
            ).to_dict(),
        )
        for seed in options.seeds
        for site in options.sites
    )
    grid = () if options.smoke else SWEEP_GRID
    sweep, sweep_problems = verify.run_cells(
        (
            f"sweep nodes={nodes} shards={shards} rate={rate:.2f}",
            lambda nodes=nodes, shards=shards, rate=rate: _sweep_cell(
                seed=options.seeds[0],
                node_count=nodes,
                shard_count=shards,
                replication=2,
                fault_rate=rate,
                sites=CHAOS_SITES,
            ),
        )
        for nodes, shards, rate in grid
    )
    problems += sweep_problems
    return verify.Verdict(
        metrics={
            "failures": float(len(problems)),
            "matrix_cycles": float(sum(cell["cycles"] for cell in cells)),
            "injected": float(
                sum(cell["resilience"].get("injected", 0) for cell in cells)
            ),
        },
        problems=problems,
        tolerances={
            "failures": {"rel": 0.0, "direction": "lower_better"},
            "matrix_cycles": {"rel": 0.10, "direction": "lower_better"},
            "injected": {"rel": 0.10, "direction": "two_sided"},
        },
        payload=dict(
            seeds=options.seeds,
            sites=options.sites,
            matrix=cells,
            sweep=sweep,
        ),
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: matrix + sweep, write the record, gate on failures."""
    return verify.main(
        "distributed",
        "repro.sharding",
        "Distributed chaos harness: sharded scatter-gather with "
        "mid-query failover vs. a single-node oracle.",
        _body,
        argv,
        sites=CHAOS_SITES,
    )


if __name__ == "__main__":  # pragma: no cover - exercised by CI chaos-distributed
    raise SystemExit(main())

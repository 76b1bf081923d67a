"""CLI: run the rebalance chaos matrix, write BENCH_rebalance.json.

``python -m repro.rebalance`` drives
:func:`repro.rebalance.verifier.run_rebalance_chaos` through two
experiments, each cell run twice by :func:`repro.verify.run_cells` (the
determinism gate):

1. **Verification matrix** — seeds × fault rates × operation mixes,
   with the ``--sites`` fault sites armed.  Each cell must produce
   byte-identical answers vs. the single-node oracle (including the
   closing full-table zero-loss checks) and a balanced fault account.
   Across the whole matrix every armed site must have fired at least
   once (the coverage gate — a chaos harness whose faults never fire
   gates nothing).

2. **Balance bench** — one unfaulted skewed run per seed, gating the
   actual win: the post-rebalance max/mean shard-load ratio must come
   down to <= 1.25 from a >= 3.0-imbalanced start, with the migration
   cycles charged honestly and reported alongside.

Exits non-zero if any gate fails, so the CI ``chaos-rebalance`` job
is a real check and not just an artifact.
"""

from __future__ import annotations

import argparse
from typing import Any, Sequence

from repro import verify
from repro.rebalance.verifier import (
    OP_MIXES,
    REBALANCE_SITES,
    run_rebalance_chaos,
)

__all__ = ["main"]

#: Fault rates the matrix sweeps (0 = protocol-only, no chaos).
FAULT_RATES: tuple[float, ...] = (0.0, 0.1, 0.25)

#: Bench gate: minimum imbalance the skewed stream must produce.
GATE_RATIO_BEFORE = 3.0

#: Bench gate: maximum post-rebalance imbalance.
GATE_RATIO_AFTER = 1.25


def _bench_cell(seed: int) -> dict[str, Any]:
    """One balance-bench run: the cell gates plus the ratio gate.

    The balance bench always runs at full size with wide windows: the
    smoke sizing (512 rows, 6-query windows) leaves per-shard load
    counts too sparsely sampled to measure a ratio against a 1.25 gate,
    and narrow *planning* windows can bait the planner into merging two
    healthy shards that merely sampled cold.
    """
    entry = run_rebalance_chaos(
        seed=seed,
        fault_rate=0.0,
        op_mix="split",
        query_count=144,
        measure_count=192,
    ).to_dict()
    before, after = entry["ratio_before"], entry["ratio_after"]
    if before < GATE_RATIO_BEFORE or after > GATE_RATIO_AFTER:
        entry["problems"].append(f"ratio {before:.2f} -> {after:.2f}")
    entry["gate"] = {
        "ratio_before_min": GATE_RATIO_BEFORE,
        "ratio_after_max": GATE_RATIO_AFTER,
        "passed": not entry["problems"],
    }
    return entry


def _body(options: argparse.Namespace) -> verify.Verdict:
    """Matrix + coverage + balance bench; the record's metrics and payload."""
    mixes = ["split"] if options.smoke else sorted(OP_MIXES)
    rates = (0.0, 0.25) if options.smoke else FAULT_RATES
    sizing = dict(
        query_count=24 if options.smoke else 48,
        row_count=512 if options.smoke else 2048,
        interleave_count=24 if options.smoke else 48,
    )
    cells, problems = verify.run_cells(
        (
            f"seed={seed} rate={rate:.2f} mix={mix}",
            lambda seed=seed, rate=rate, mix=mix: run_rebalance_chaos(
                seed=seed,
                fault_rate=rate,
                op_mix=mix,
                sites=tuple(options.sites),
                **sizing,
            ).to_dict(),
        )
        for seed in options.seeds
        for rate in rates
        for mix in mixes
    )
    silent = [
        site
        for site in options.sites
        if not any(cell["resilience"].get(f"injected[{site}]") for cell in cells)
    ]
    if silent:
        problems.append(f"coverage: sites never fired: {', '.join(silent)}")
    bench, bench_problems = verify.run_cells(
        (f"bench seed={seed}", lambda seed=seed: _bench_cell(seed))
        for seed in options.seeds
    )
    problems += bench_problems

    metrics = {"failures": float(len(problems))}
    tolerances: dict[str, dict[str, Any]] = {
        "failures": {"rel": 0.0, "direction": "lower_better"},
    }
    for entry in bench:
        name = f"ratio_after.s{entry['seed']}"
        metrics[name] = float(entry["ratio_after"])
        tolerances[name] = {"rel": 0.10, "direction": "lower_better"}
    return verify.Verdict(
        metrics=metrics,
        problems=problems,
        tolerances=tolerances,
        payload=dict(
            seeds=options.seeds,
            sites=options.sites,
            fault_rates=list(rates),
            op_mixes=mixes,
            matrix=cells,
            # "bench" is the envelope's harness-name key, so the balance
            # bench cells land under "balance_bench".
            balance_bench=bench,
        ),
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: matrix + balance bench, write the record, gate."""
    return verify.main(
        "rebalance",
        "repro.rebalance",
        "Elastic rebalancing chaos harness: crash-safe live "
        "split/merge/move migrations under skewed verified traffic.",
        _body,
        argv,
        sites=REBALANCE_SITES,
    )


if __name__ == "__main__":  # pragma: no cover - exercised by CI chaos-rebalance
    raise SystemExit(main())

"""CLI: run the crash/recover verification matrix, write BENCH_recovery.json.

``python -m repro.recovery`` drives
:func:`repro.recovery.verifier.run_crash_recover` across a seed × crash
-site grid (defaults match the CI ``chaos-recovery`` job: seeds
5/23/101 × the three crash sites) and writes one JSON record per cell —
recovery cycles, replayed-transaction counts, and the verdicts (the
crash fired, state match, accounting balance).  Each cell runs twice
(:func:`repro.verify.run_cells`, the determinism gate); the CLI exits
non-zero if any cell fails, so the job is a real gate and not just an
artifact.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro import verify
from repro.recovery.verifier import CRASH_SITES, run_crash_recover

__all__ = ["main"]


def _body(options: argparse.Namespace) -> verify.Verdict:
    """The crash/recover matrix; the record's metrics and payload."""
    # Smoke shrinks the table but keeps the full query stream: the
    # crash sites fire probabilistically per query, so cutting the
    # stream would leave some (seed, site) cells with no crash at all.
    sizing = dict(rows=200) if options.smoke else {}

    def cell(seed: int, site: str) -> dict:
        record = run_crash_recover(seed, site, **sizing).to_dict()
        gates = {
            "crashed": record["crashed"],
            "state_matches": record["state_matches"],
            "accounted": record["unaccounted_faults"] == 0,
        }
        problems = [name for name, passed in gates.items() if not passed]
        return {**record, "problems": problems}

    cells, problems = verify.run_cells(
        (
            f"seed={seed} site={site}",
            lambda seed=seed, site=site: cell(seed, site),
        )
        for seed in options.seeds
        for site in options.sites
    )
    return verify.Verdict(
        metrics={
            "failures": float(len(problems)),
            "replayed_txns": float(sum(c["replayed_txns"] for c in cells)),
            "recovery_cycles": float(sum(c["recovery_cycles"] for c in cells)),
        },
        problems=problems,
        tolerances={
            "failures": {"rel": 0.0, "direction": "lower_better"},
            "replayed_txns": {"rel": 0.10, "direction": "two_sided"},
            "recovery_cycles": {"rel": 0.10, "direction": "lower_better"},
        },
        payload=dict(
            seeds=options.seeds,
            sites=options.sites,
            runs=cells,
        ),
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: run the matrix, write the record, gate on failures."""
    return verify.main(
        "recovery",
        "repro.recovery",
        "Crash/recover verification harness (WAL + checkpoints "
        "+ ARIES-lite restart against a committed-prefix oracle).",
        _body,
        argv,
        sites=sorted(CRASH_SITES),
    )


if __name__ == "__main__":  # pragma: no cover - exercised by CI chaos-recovery
    raise SystemExit(main())

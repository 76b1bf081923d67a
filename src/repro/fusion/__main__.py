"""Fusion verifier CLI: ``python -m repro.fusion``.

Writes ``BENCH_fusion.json`` — the pipeline compiler's acceptance
record — and gates the tentpole claims:

* the **speedup gate**: on the attribute-centric probe query
  (``sum(i_price) where i_im_id < t`` at selectivity 0.5), the fused
  path must run at least **3x** cheaper end-to-end than the unfused
  operator chain, on the host columns *and* on the device (warm
  staging — the placement an engine actually repeats queries on);
* the **byte-identity gate**: every fused answer across the ablation
  grid must equal the unfused host oracle's, compared with ``==``,
  not a tolerance — fusion is an optimization, never a semantics
  change;
* the **ranking gate**: HyPE's uncalibrated route features must rank
  fused vs. unfused correctly on every grid cell, on both placements —
  including the low-selectivity cells where the unfused host path
  genuinely wins.

The process exits non-zero when any gate fails, so CI's bench-smoke
job blocks on all three.
"""

from __future__ import annotations

import argparse
from typing import Any, Sequence

from repro import verify

__all__ = ["main"]

#: The gated selectivity cell: half the rows match — squarely in the
#: regime the paper's hybrid workloads live in.
GATE_SELECTIVITY = 0.5

#: Required end-to-end advantage of the fused path on both placements.
GATE_SPEEDUP = 3.0


def _speedup_record(row_count: int) -> dict[str, Any]:
    """The gated cell, measured directly (not via the sweep grid)."""
    from repro.bench.ablations import fusion_sweep

    (point,) = fusion_sweep(
        selectivities=(GATE_SELECTIVITY,), row_count=row_count
    )
    host = point.outcomes["host_speedup"]
    device = point.outcomes["device_speedup"]
    return {
        "row_count": row_count,
        "selectivity": GATE_SELECTIVITY,
        "host_speedup": host,
        "device_warm_speedup": device,
        "identical": bool(point.outcomes["identical"]),
        "passed": (
            host >= GATE_SPEEDUP
            and device >= GATE_SPEEDUP
            and point.outcomes["identical"] == 1.0
        ),
    }


def _body(options: argparse.Namespace) -> verify.Verdict:
    """Run the fusion grid and the gated cell; the record's verdict."""
    from repro.bench.ablations import SWEEPS, fusion_sweep

    if options.smoke:
        grid_kwargs = dict(SWEEPS["fusion"].smoke_kwargs)
        gate_rows = 200_000
    else:
        grid_kwargs = {}
        gate_rows = 2_000_000

    points = fusion_sweep(**grid_kwargs)
    speedup = _speedup_record(gate_rows)
    identical = speedup["identical"] and all(
        point.outcomes["identical"] == 1.0 for point in points
    )
    ranked = all(point.outcomes["hype_rank_correct"] == 1.0 for point in points)
    gates = {
        "speedup_gate": speedup["passed"],
        "byte_identity": identical,
        "hype_ranking": ranked,
    }
    return verify.Verdict(
        metrics={
            "host_speedup": speedup["host_speedup"],
            "device_warm_speedup": speedup["device_warm_speedup"],
        },
        problems=[name for name, passed in gates.items() if not passed],
        tolerances={
            "host_speedup": {"rel": 0.15, "direction": "higher_better"},
            "device_warm_speedup": {"rel": 0.15, "direction": "higher_better"},
        },
        payload=dict(
            grid=[
                {"selectivity": point.knob, **point.outcomes}
                for point in points
            ],
            speedup_gate=speedup,
            byte_identity={"passed": identical},
            hype_ranking={"passed": ranked},
        ),
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Run the fusion grid + gates; write the record; 0 iff gates pass."""
    return verify.main(
        "fusion",
        "repro.fusion",
        "Benchmark the pipeline compiler and gate its claims.",
        _body,
        argv,
        seeds=False,
    )


if __name__ == "__main__":  # pragma: no cover - exercised by CI bench-smoke
    raise SystemExit(main())

"""``python -m repro.serving`` — the concurrent-serving verifier CLI.

Runs the byte-identity, throughput, tail-latency, and exactly-once-
attribution gates per seed (each seed twice, the determinism gate)
through the shared :mod:`repro.verify` harness and writes the
``BENCH_serving.json`` record; exits non-zero when any gate fails,
which is what the CI ``serving-bench`` job keys off.
"""

from __future__ import annotations

from typing import Sequence

from repro import verify
from repro.serving.verifier import run_serving_verifier


def main(argv: Sequence[str] | None = None) -> int:
    """Parse flags, run the gates, write the record; 0 iff all pass."""
    return verify.main(
        "serving",
        "repro.serving",
        "Concurrent multi-tenant serving verifier: batched answers must "
        "be byte-identical to a serial replay, batching must beat serial "
        "dispatch at saturation, and admission control must bound the "
        "latency tail.",
        lambda options: run_serving_verifier(options.seeds, options.smoke),
        argv,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())

"""One verifier harness for every ``python -m repro.<plane>`` CLI.

A verifier is a *body*: a function of the parsed options returning a
:class:`Verdict`.  :func:`main` owns the rest — the shared flags
(``--seeds``, ``--sites``, ``--smoke``, ``--output``), the wall clock,
the ``repro-bench/1`` envelope with ``ok = not problems``, the JSON
write, the console summary and the exit code.  :func:`run_cells` is the
determinism rule: every seeded cell runs twice and must repeat its
record.  The flag contract is documented in ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs.bench import make_bench_record
from repro.obs.logging import configure_cli_logging, get_logger

__all__ = [
    "DEFAULT_SEEDS",
    "Verdict",
    "parse_csv",
    "parse_seeds",
    "run_cells",
    "main",
]

#: The CI chaos matrix seeds every seeded verifier defaults to.
DEFAULT_SEEDS = "5,23,101"

logger = get_logger(__name__)


@dataclass
class Verdict:
    """A body's result: regression-comparable ``metrics`` (with their
    ``tolerances``), one ``problems`` line per failed gate, and the
    ``payload`` the record carries at its top level."""

    metrics: dict[str, float]
    problems: list[str] = field(default_factory=list)
    tolerances: dict[str, dict[str, Any]] = field(default_factory=dict)
    payload: dict[str, Any] = field(default_factory=dict)


def parse_csv(text: str) -> list[str]:
    """Split a ``--sites``-style comma list, dropping empties."""
    return [item.strip() for item in text.split(",") if item.strip()]


def parse_seeds(text: str) -> list[int]:
    """Decode a ``--seeds`` comma list into integers."""
    return [int(item) for item in parse_csv(text)]


def run_cells(
    cells: Iterable[tuple[str, Callable[[], dict[str, Any]]]],
) -> tuple[list[dict[str, Any]], list[str]]:
    """Run every ``(label, thunk)`` cell twice; returns (records, problems).

    A record may carry its own gate failures under ``problems``; a
    second run whose record differs adds ``records differ``.  Every
    record gets ``deterministic`` and ``problems``; the returned
    problems hold one labelled line per failing cell.
    """
    records: list[dict[str, Any]] = []
    failures: list[str] = []
    for label, thunk in cells:
        record = thunk()
        record["deterministic"] = record == thunk()
        record["problems"] = list(record.get("problems", ()))
        if not record["deterministic"]:
            record["problems"].append("records differ between identical runs")
        records.append(record)
        verdict = "; ".join(record["problems"])
        logger.info("%s: %s", label, f"FAIL {verdict}" if verdict else "ok")
        if verdict:
            failures.append(f"{label}: {verdict}")
    return records, failures


def main(
    bench: str,
    module: str,
    description: str,
    body: Callable[[argparse.Namespace], Verdict],
    argv: Sequence[str] | None = None,
    *,
    seeds: bool = True,
    sites: Sequence[str] | None = None,
    arguments: Sequence[tuple[str, Mapping[str, Any]]] = (),
) -> int:
    """Parse flags, run *body*, write ``BENCH_<bench>.json``; 0 iff it passed.

    *seeds* and *sites* choose which shared flags exist; *arguments*
    adds verifier-specific ``(flag, add_argument kwargs)`` pairs.
    """
    parser = argparse.ArgumentParser(
        prog=f"python -m {module}", description=description
    )
    if seeds:
        parser.add_argument(
            "--seeds", type=parse_seeds, default=DEFAULT_SEEDS,
            help=f"comma-separated chaos seeds (default: {DEFAULT_SEEDS})",
        )
    if sites is not None:
        parser.add_argument(
            "--sites", type=parse_csv, default=",".join(sites),
            help="comma-separated fault sites (default: all of them)",
        )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced configuration (fast local sanity check / PR CI)",
    )
    parser.add_argument(
        "--output", default=f"BENCH_{bench}.json",
        help=f"write the JSON record here (default: BENCH_{bench}.json)",
    )
    for flag, spec in arguments:
        parser.add_argument(flag, **spec)
    options = parser.parse_args(argv)
    configure_cli_logging()
    started = time.perf_counter()
    verdict = body(options)
    record = make_bench_record(
        bench,
        ok=not verdict.problems,
        metrics=verdict.metrics,
        tolerances=verdict.tolerances,
        smoke=options.smoke,
        wall_seconds=time.perf_counter() - started,
        **verdict.payload,
    )
    with open(options.output, "w", encoding="utf-8") as sink:
        json.dump(record, sink, indent=2, sort_keys=True)
    for name, value in record["metrics"].items():
        logger.info("  %s = %.6g", name, value)
    for problem in verdict.problems:
        logger.error("FAIL %s", problem)
    logger.info(
        "%s verifier: %s (%.2fs wall, wrote %s)",
        bench, "OK" if record["ok"] else "FAILED",
        record["wall_seconds"], options.output,
    )
    return 0 if record["ok"] else 1

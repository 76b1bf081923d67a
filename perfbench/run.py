"""The repository's benchmark: one seeded workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_htap --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, on two
clocks: host time, scaled to the reference machine's speed by
:class:`refclock.RefClock`, and simulated cycles.  Sessions run until
``--seconds`` of timed phase have passed and at least ``min_ops`` ops
were issued.  The simulated metrics, ``failed_ratio`` and
``space_amp`` come from the workload's first ``fixed_sessions``
sessions only, so they are a pure function of the seed.

``--trace 1`` runs those fixed sessions (and ``serve_htap``'s rate
ladder) twice, untraced and then traced, and reports the per-layer
metrics of the traced pass with the tracing overhead.  It fails the
run if tracing moved any simulated metric.

Every session's outputs are checked against the library's oracles,
outside the timed phase.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans
of a traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Stop starting optional sessions after this much wall-clock, so a
#: slow machine still finishes well inside the run's time limit.
WALL_LIMIT_S = 120.0


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_sessions(workload, seed, count, seconds=0.0, min_ops=0, log=None):
    """Build, run and check sessions; returns (results, setup samples).

    Runs *count* sessions, then keeps going while the timed phase is
    shorter than *seconds* or fewer than *min_ops* ops were issued
    (unless the wall limit has passed).  With *log*, each session's
    timed phase runs under the boundary wrappers.
    """
    from refclock import RefClock
    from spans import ROOT, traced

    clock = RefClock()
    results, setups = [], []
    timed = 0.0
    ops = 0
    index = 0
    while index < count or (
        (timed < seconds or ops < min_ops)
        and time.perf_counter() - PROCESS_START < WALL_LIMIT_S
    ):
        start = time.perf_counter()
        session = workload.build(seed, index, log)
        setups.append(time.perf_counter() - start)
        clock.calibrate()
        if log is None:
            result = workload.run(session, clock)
        else:
            with traced(log), log.span(ROOT):
                result = workload.run(session, clock)
        workload.check(session, result)
        results.append(result)
        timed += result.host_s
        ops += result.ops
        index += 1
    return results, setups


def sim_metrics(results) -> dict[str, float]:
    """The seed-determined metrics of a list of fixed sessions."""
    sim_samples = [v for r in results for v in r.sim_op_us]
    return {
        "sim_op_p50_us": percentile(sim_samples, 50.0),
        "sim_op_p99_us": percentile(sim_samples, 99.0),
        "sim_ops_per_s": ratio(
            sum(r.completed for r in results), sum(r.sim_seconds for r in results)
        ),
        "failed_ratio": ratio(
            sum(r.failed for r in results), sum(r.ops for r in results)
        ),
        "space_amp": ratio(
            sum(r.held_bytes for r in results), sum(r.user_bytes for r in results)
        ),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed, seconds, import_s):
    """Untraced run: every end-to-end metric, plus sample counts."""
    from repro.perf.cost_cache import CostCache, set_cost_cache

    set_cost_cache(CostCache())
    results, setups = run_sessions(
        workload, seed, workload.fixed_sessions, seconds, workload.min_ops
    )
    host_samples = [v for r in results for v in r.host_op_ms]
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "host_ops_per_s": ratio(
            sum(r.completed for r in results), sum(r.host_s for r in results)
        ),
        "host_op_p50_ms": percentile(host_samples, 50.0),
        "host_op_p99_ms": percentile(host_samples, 99.0),
        **sim_metrics(results[: workload.fixed_sessions]),
        "peak_rss_mb": peak_rss_mb(),
    }
    counts = {
        "sessions": len(results),
        "setup_samples": len(setups),
        "host_op_samples": len(host_samples),
        "sim_op_samples": sum(
            len(r.sim_op_us) for r in results[: workload.fixed_sessions]
        ),
        "timed_s": sum(r.host_s for r in results),
    }
    return metrics, results, counts


def per_layer(workload, seed, import_s):
    """Traced run: the fixed sessions untraced, then traced."""
    from repro.perf.cost_cache import CostCache, set_cost_cache
    from spans import ROOT, SpanLog, traced

    n = workload.fixed_sessions
    set_cost_cache(CostCache())
    plain, __ = run_sessions(workload, seed, n)
    plain_extra = workload.finish(seed, None)
    log = SpanLog()
    cache = CostCache()
    set_cost_cache(cache)
    results, __ = run_sessions(workload, seed, n, log=log)
    with traced(log), log.span(ROOT):
        extra = workload.finish(seed, log)
    problems = []
    if sim_metrics(plain) != sim_metrics(results) or plain_extra != extra:
        problems.append("tracing changed a simulated metric")

    spans = log.self_totals()
    layer: Counter[str] = Counter(extra)
    for result in results:
        layer.update(result.layer)
    ops = sum(r.ops for r in results)
    user_bytes = sum(r.user_bytes for r in results)

    def span(name: str, quantity: str) -> float:
        return spans[name][quantity] if name in spans else 0.0

    def median_of(key: str) -> float:
        return statistics.median(r.layer.get(key, 0.0) for r in results)

    metrics = {"setup.import_s": import_s}
    for name in (
        "serving.admit", "serving.loop", "obs.settle", "sharding.run",
        "sharding.replay_updates", "adapt.statistics",
    ):
        metrics[f"{name}.host_self_ms"] = span(name, "host_self_ms")
    for name in (
        "execution.materialize_rows", "sharding.load_entries",
        "recovery.read_back", "distributed.read", "distributed.re_replicate",
    ):
        metrics[f"{name}.calls"] = span(name, "calls")
        metrics[f"{name}.host_self_ms"] = span(name, "host_self_ms")
    for name in (
        "execution.device_batch", "recovery.wal_flush", "recovery.checkpoint",
        "rebalance.round", "engines.reorganize",
    ):
        metrics[f"{name}.calls"] = span(name, "calls")
        metrics[f"{name}.host_self_ms"] = span(name, "host_self_ms")
        metrics[f"{name}.sim_cycles"] = span(name, "sim_cycles")
    metrics["execution.device_sum.calls"] = span("execution.device_sum", "calls")
    metrics["execution.device_sum.sim_cycles"] = span("execution.device_sum", "sim_cycles")
    for shape in ("full_sum", "point_materialize", "point_update"):
        metrics[f"engines.op.{shape}.host_self_ms"] = span(f"engines.op.{shape}", "host_self_ms")
        metrics[f"engines.op.{shape}.sim_cycles"] = span(f"engines.op.{shape}", "sim_cycles")
    for key in (
        "sharding.load_entries.entries", "recovery.read_back.bytes",
        "distributed.read.bytes", "engines.reorganize.changed",
    ):
        metrics[key] = log.counts.get(key, 0.0)
    offered = layer["arrivals"] + layer["ladder_arrivals"]
    metrics.update({
        "serving.batch_size_mean": ratio(layer["served"], layer["units"]),
        "serving.shed_ratio": ratio(
            layer["shed"] + layer["ladder_shed"], offered
        ),
        "serving.rate_at_slo_qps": layer["rate_at_slo_qps"],
        "staging.hit_ratio": ratio(
            layer["staging_hits"],
            layer["staging_hits"] + layer["staging_misses"],
        ),
        "staging.pcie_bytes_per_op": ratio(layer["pcie_bytes"], ops),
        "staging.transfers": layer["transfers"],
        "perf.cost_cache.hit_ratio": ratio(cache.hits, cache.hits + cache.misses),
        "sharding.failovers": layer["failovers"],
        "sharding.hedges": layer["hedges"],
        "sharding.rebuilds": layer["rebuilds"],
        "recovery.wal_bytes_per_user_byte": ratio(layer["wal_bytes"], user_bytes),
        "recovery.restart.host_ms": median_of("restart_host_ms"),
        "recovery.restart.sim_cycles": median_of("restart_sim_cycles"),
        "distributed.files": median_of("files"),
        "rebalance.migrations_committed": layer["migrations_committed"],
        "rebalance.migrations_aborted": layer["migrations_aborted"],
        "rebalance.load_ratio_after": median_of("load_ratio_after"),
        "faults.injected": layer["injected"],
        "faults.retried": layer["retried"],
        "faults.fallen_back": layer["fallen_back"],
        "faults.surfaced": layer["surfaced"],
        "faults.failed_ratio": sim_metrics(results)["failed_ratio"],
        "engines.device_columns": median_of("device_columns"),
        "other.host_self_ms": span(ROOT, "host_self_ms"),
        "trace.overhead_ratio": ratio(
            sum(r.host_s for r in results) - sum(r.host_s for r in plain),
            sum(r.host_s for r in plain),
        ),
        "trace.spans": float(len(log.names)),
    })
    log.write(HERE / "out" / f"spans-{workload.name}-{seed}.tsv.gz")
    return metrics, results, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (part of set-up time)
    from workloads import WORKLOADS

    import_s = time.perf_counter() - PROCESS_START
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    if args.trace:
        metrics, results, problems = per_layer(workload, args.seed, import_s)
        units = metric_units("per_layer")
    else:
        metrics, results, counts = end_to_end(workload, args.seed, args.seconds, import_s)
        problems = []
        units = metric_units("end_to_end")
        print(f"# {workload.name} seed {args.seed}: " + ", ".join(
            f"{key}={value:g}" for key, value in counts.items()
        ))
    problems += [p for r in results for p in r.problems]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.ops for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 1 if problems else 0


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


if __name__ == "__main__":
    sys.exit(main())

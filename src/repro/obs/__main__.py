"""Observability smoke CLI: ``python -m repro.obs``.

Runs a Figure-2-shaped probe workload — a cold device sum (staging
miss + PCIe burst + kernel), a warm repeat (staging hit), a host column
sum, and a batch of WAL-logged transactions with group commit — under a
fault injector that forces exactly one retried PCIe transfer, then:

* writes the Perfetto-loadable Chrome trace (``--trace``) and validates
  it against the minimal schema gate
  (:func:`~repro.obs.export.validate_chrome_trace`);
* re-runs the identical workload **untraced** and gates the
  zero-observer-effect contract: both runs' final
  :meth:`~repro.hardware.event.PerfCounters.snapshot` must be
  byte-identical;
* checks that spans from at least five distinct layers (query,
  operator, kernel, pcie, wal) plus staging/fault instant events were
  recorded, and that every span tree nests cleanly;
* logs the :func:`~repro.obs.profile.explain` report and writes
  ``BENCH_obs.json`` with the per-layer cycle attribution.

On top of that, the telemetry-plane gates run a compact serving probe
per ``--seeds`` seed:

* **window closure** — every counter series' tumbling-window sums equal
  its running total and the by-metric totals equal the root
  :class:`~repro.hardware.event.PerfCounters` fields;
* **windowed zero observer** — the probe with a
  :class:`~repro.obs.timeseries.WindowedRegistry` active is
  byte-identical (answers, makespan, counter totals) to the same seed
  with the plane off;
* **SLO discrimination + determinism** — the healthy probe produces
  zero burn-rate alerts, the seeded-overload probe fires, and every
  seed's probes run twice (:func:`repro.verify.run_cells`) yield
  identical records, alert streams included;
* **regression self-check** — :func:`repro.obs.regress.compare_records`
  flags a synthetic 25% regression and passes identical artifacts.

The process exits non-zero when any gate fails, so CI's obs-smoke and
obs-regress jobs can assert the whole observability contract in one
command; ``BENCH_obs.json`` follows the unified
:mod:`repro.obs.bench` schema.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Sequence

from repro import verify
from repro.obs.logging import get_logger

__all__ = ["run_figure2_workload", "run_windowed_probe", "main"]

#: Span layers the probe workload must exercise (instants add
#: ``staging`` and ``fault`` on top).
REQUIRED_SPAN_LAYERS = ("query", "operator", "kernel", "pcie", "wal")

logger = get_logger(__name__)


def run_figure2_workload(
    rows: int = 100_000, tracer: Any = None, seed: int = 7
) -> dict[str, Any]:
    """Run the probe workload once; return its artifacts.

    *tracer* is attached to the platform built inside; pass ``None``
    for the untraced zero-observer baseline.  Everything that costs
    simulated cycles runs inside an observed query, so the
    :class:`~repro.obs.MetricsRegistry` totals equal the context's
    final counters.
    """
    from repro.bench.figure2 import build_column_store
    from repro.execution.context import ExecutionContext
    from repro.execution.device import device_sum_column
    from repro.execution.operators import sum_column
    from repro.faults.injector import SITE_PCIE_TRANSFER, FaultInjector
    from repro.faults.policy import RetryPolicy
    from repro.hardware.event import PerfCounters
    from repro.hardware.platform import Platform
    from repro.obs.metrics import MetricsRegistry
    from repro.recovery.wal import WriteAheadLog
    from repro.workload.tpcc import item_relation

    platform = Platform.paper_testbed()
    platform.tracer = tracer
    # Exactly one forced PCIe fault: the first burst attempt fails
    # after burning its wire time, the retry policy absorbs it.
    injector = FaultInjector(seed=seed)
    injector.arm(SITE_PCIE_TRANSFER, 1.0, max_faults=1)
    injector.install(platform)
    wal = WriteAheadLog(platform, group_commit=4)
    ctx = ExecutionContext(platform, retry=RetryPolicy())
    ctx.wal = wal
    store = build_column_store(platform, item_relation(rows))
    registry = MetricsRegistry()

    def observed(name: str, operation) -> None:
        """One traced query: span + per-query counter delta."""
        before = ctx.counters.snapshot()
        with ctx.span(name, "query"):
            operation(ctx)
        after = ctx.counters.snapshot()
        delta = PerfCounters(
            **{key: after[key] - value for key, value in before.items()}
        )
        registry.observe_query(name, delta)

    observed(
        "q1-device-sum-cold",
        lambda qctx: device_sum_column(store, "i_price", qctx),
    )
    observed(
        "q2-device-sum-warm",
        lambda qctx: device_sum_column(store, "i_price", qctx),
    )
    observed(
        "q3-host-sum", lambda qctx: sum_column(store, "i_price", qctx)
    )

    def oltp_batch(qctx) -> None:
        """Eight logged transactions; group commit flushes twice."""
        for txn in range(1, 9):
            wal.log_begin(txn, qctx)
            wal.log_update(
                txn, "item", "i_price", txn, float(txn), float(txn + 1), qctx
            )
            wal.log_commit(txn, qctx)

    observed("q4-oltp-commits", oltp_batch)

    rates = registry.derive_rates(platform=platform, wal=wal)
    return {
        "rows": rows,
        "snapshot": ctx.counters.snapshot(),
        "breakdown": dict(ctx.breakdown.parts),
        "rates": rates,
        "metrics": registry.dump(),
        "ctx": ctx,
        "platform": platform,
        "wal": wal,
        "registry": registry,
    }


#: The SLOs the windowed serving probe evaluates: a latency objective
#: calibrated so the healthy probe sits comfortably inside it while the
#: saturated probe blows through, and a served/shed error-ratio
#: objective only the chaos overflow site violates.
PROBE_LATENCY_THRESHOLD_CYCLES = 400_000.0


def _probe_slos() -> tuple:
    from repro.obs.slo import SloSpec

    return (
        SloSpec(
            name="p99-latency",
            kind="latency",
            metric="serving.latency",
            objective=0.95,
            threshold=PROBE_LATENCY_THRESHOLD_CYCLES,
        ),
        SloSpec(
            name="shed-rate",
            kind="event_ratio",
            metric="serving.served",
            bad_metric="serving.shed",
            objective=0.95,
        ),
    )


def run_windowed_probe(
    seed: int, overload: bool, windowed: bool = True
) -> dict[str, Any]:
    """One compact serving cell with (or without) the time-series plane.

    *overload* switches between a lightly-loaded healthy cell (arrival
    gaps far wider than the service time, no chaos) and a saturated
    cell under the ``serving.queue-overflow`` chaos site.  Returns the
    run's fingerprint (answers, makespan, counter snapshot) plus — when
    *windowed* — the registry, its closure problems, and the
    deterministic alert stream.
    """
    from repro.obs.slo import evaluate_slos
    from repro.obs.timeseries import WindowedRegistry
    from repro.serving.server import BATCH_16
    from repro.serving.verifier import build_tenants, serve_once

    rows = 6_000
    horizon = 600_000.0
    gap = 15_000.0 if overload else 150_000.0
    tenants = build_tenants(3, gap, "poisson", horizon)
    registry = WindowedRegistry() if windowed else None
    outcome = serve_once(
        seed,
        rows,
        tenants,
        horizon,
        BATCH_16,
        max_backlog=16 if overload else None,
        overflow_rate=0.08 if overload else 0.0,
        registry=registry,
    )
    fingerprint = {
        "answers": [
            (seq, repr(answer))
            for seq, __, answer in outcome.loop.answers_for_replay()
        ],
        "makespan": outcome.report.makespan_cycles,
        "snapshot": outcome.ctx.counters.snapshot(),
    }
    result: dict[str, Any] = {"fingerprint": fingerprint, "outcome": outcome}
    if windowed:
        horizon_end = max(outcome.report.makespan_cycles, 1.0)
        result["registry"] = registry
        result["closure_problems"] = registry.verify_closure(
            outcome.ctx.counters
        )
        result["alerts"] = evaluate_slos(registry, _probe_slos(), horizon_end)
    return result


def _regress_self_check() -> dict[str, bool]:
    """The regression detector flags 25% drift and passes identity."""
    from repro.obs.bench import make_bench_record
    from repro.obs.regress import compare_records

    tolerances = {
        "latency": {"rel": 0.10, "direction": "lower_better"},
        "hit_rate": {"rel": 0.10, "direction": "higher_better"},
    }
    baseline = make_bench_record(
        "probe", True, {"latency": 100.0, "hit_rate": 0.8},
        tolerances=tolerances,
    )
    regressed = make_bench_record(
        "probe", True, {"latency": 125.0, "hit_rate": 0.8},
        tolerances=tolerances,
    )
    return {
        "flags_synthetic_regression": not compare_records(
            baseline, regressed
        ).ok,
        "passes_identical": compare_records(baseline, baseline).ok,
    }


def _seed_cell(seed: int) -> dict[str, Any]:
    """The telemetry-plane gates on one seed's serving probe."""
    healthy = run_windowed_probe(seed, overload=False)
    healthy_plain = run_windowed_probe(seed, overload=False, windowed=False)
    overload = run_windowed_probe(seed, overload=True)
    gates = {
        "window_closure": not healthy["closure_problems"]
        and not overload["closure_problems"],
        "windowed_zero_observer": healthy["fingerprint"]
        == healthy_plain["fingerprint"],
        "healthy_silent": len(healthy["alerts"]) == 0,
        "overload_fires": len(overload["alerts"]) > 0,
    }
    return {
        "gates": gates,
        "problems": [name for name, passed in gates.items() if not passed],
        "closure_problems": healthy["closure_problems"]
        + overload["closure_problems"],
        "healthy_alerts": len(healthy["alerts"]),
        "overload_alerts": [
            {
                "slo": alert.slo,
                "severity": alert.severity,
                "cycle": alert.cycle,
                "burn_fast": alert.burn_fast,
                "burn_slow": alert.burn_slow,
            }
            for alert in overload["alerts"]
        ],
        "probe_makespan": overload["fingerprint"]["makespan"],
    }


def _body(options: argparse.Namespace) -> verify.Verdict:
    """Run the traced + untraced probes and the per-seed gates."""
    from repro.obs.export import validate_chrome_trace, write_chrome_trace
    from repro.obs.profile import explain, layer_attribution
    from repro.obs.tracer import Tracer, nesting_violations

    rows = options.rows or (100_000 if options.smoke else 1_000_000)
    tracer = Tracer()
    traced = run_figure2_workload(rows=rows, tracer=tracer)
    untraced = run_figure2_workload(rows=rows, tracer=None)
    logger.info("%s", explain(traced["ctx"], tracer))

    # Gate 1: zero observer effect, byte for byte.
    identical = json.dumps(traced["snapshot"], sort_keys=True) == json.dumps(
        untraced["snapshot"], sort_keys=True
    )

    # Gate 2: the Chrome trace passes the schema validator.
    frequency = traced["platform"].cpu.frequency_hz
    events = write_chrome_trace(
        options.trace, tracer, frequency, workload="figure2-probe", rows=rows
    )
    trace_problems = validate_chrome_trace(events)

    # Gate 3: every span tree nests cleanly.
    nesting: list[str] = []
    for root in tracer.roots:
        nesting.extend(nesting_violations(root))

    # Gate 4: all required layers present (spans + instants).
    span_layers = {span.category for span in tracer.spans()}
    instant_layers = {event.category for event in tracer.events}
    missing_layers = sorted(
        set(REQUIRED_SPAN_LAYERS) - span_layers
    ) + sorted({"staging", "fault"} - instant_layers)

    # Gates 5-8, per seed, each seed twice (so the alert stream is
    # deterministic): the telemetry-plane contracts on a compact
    # serving probe.
    seeds = options.seeds[:1] if options.smoke else options.seeds
    cells, problems = verify.run_cells(
        (f"windowed gates (seed {seed})", lambda seed=seed: _seed_cell(seed))
        for seed in seeds
    )
    per_seed = {str(seed): cell for seed, cell in zip(seeds, cells)}

    # Gate 9: the regression detector discriminates.
    regress_gates = _regress_self_check()
    gates = {
        "zero_observer_identical": identical,
        "trace_problems": not trace_problems,
        "nesting_violations": not nesting,
        "missing_layers": not missing_layers,
        **regress_gates,
    }
    problems += [name for name, passed in gates.items() if not passed]
    metrics = {"figure2_cycles": traced["snapshot"]["cycles"]}
    tolerances = {"figure2_cycles": {"rel": 0.05, "direction": "lower_better"}}
    for seed_key, cell in per_seed.items():
        metrics[f"overload_alerts.s{seed_key}"] = len(cell["overload_alerts"])
        metrics[f"probe_makespan.s{seed_key}"] = cell["probe_makespan"]
        tolerances[f"probe_makespan.s{seed_key}"] = {
            "rel": 0.10, "direction": "two_sided",
        }
    return verify.Verdict(
        metrics=metrics,
        problems=problems,
        tolerances=tolerances,
        payload=dict(
            rows=rows,
            zero_observer_identical=identical,
            trace_file=options.trace,
            trace_events=len(events),
            trace_problems=trace_problems,
            nesting_violations=nesting,
            span_layers=sorted(span_layers),
            instant_layers=sorted(instant_layers),
            missing_layers=missing_layers,
            layer_attribution_cycles=layer_attribution(tracer),
            rates=traced["rates"],
            registry_dump=traced["metrics"],
            seeds=per_seed,
            regress_gates=regress_gates,
        ),
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Run the traced + untraced probes; write artifacts; 0 iff gates pass."""
    return verify.main(
        "obs",
        "repro.obs",
        "Trace a Figure-2 probe workload and gate the observability "
        "contracts (zero observer effect, trace schema, window "
        "closure, SLO burn-rate alerting, regression detection).",
        _body,
        argv,
        arguments=(
            ("--rows", dict(type=int, help="override the probe row count")),
            ("--trace", dict(default="trace.json", help="where to write the "
                             "Chrome/Perfetto trace (default: trace.json)")),
        ),
    )


if __name__ == "__main__":  # pragma: no cover - exercised by CI obs-smoke
    raise SystemExit(main())

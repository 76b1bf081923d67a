"""Two platforms in one process never share an observer.

Observers attach to the platform they watch, by assignment; nothing
process-wide hands them to other platforms.  These tests run an
observed and a plain serving cell back to back in one process and check
that neither leaks into the other: the plain cell's record equals its
solo run, and the observed cell's tracer and registry hold only what
its own run emitted.
"""

from repro.execution.context import ExecutionContext
from repro.faults.injector import FaultInjector
from repro.faults.policy import RetryPolicy
from repro.hardware.event import PerfCounters
from repro.hardware.platform import Platform
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import WindowedRegistry
from repro.obs.tracer import Tracer
from repro.serving.admission import SITE_QUEUE_OVERFLOW, AdmissionQueue
from repro.serving.arrivals import WorkloadGenerator
from repro.serving.server import BATCH_16, LayoutBackend, ServingLoop
from repro.serving.verifier import (
    OLAP_ATTRIBUTES,
    build_item_store,
    build_tenants,
)

SEED = 11
HORIZON = 300_000.0
OVERFLOW_RATE = 0.08


def run_cell(tracer=None, metrics=None):
    """One seeded serving cell; observers go on its own platform only."""
    platform = Platform.paper_testbed()
    platform.tracer = tracer
    platform.metrics = metrics
    injector = FaultInjector(seed=SEED).arm(SITE_QUEUE_OVERFLOW, OVERFLOW_RATE)
    injector.install(platform)
    store = build_item_store(platform, 2_000)
    tenants = build_tenants(2, 40_000.0, "poisson", HORIZON)
    generator = WorkloadGenerator(
        store.relation, tenants, seed=SEED, olap_attributes=OLAP_ATTRIBUTES
    )
    ctx = ExecutionContext(platform, retry=RetryPolicy(report=injector.report))
    loop = ServingLoop(
        backend=LayoutBackend(platform, store),
        ctx=ctx,
        queue=AdmissionQueue(8, injector),
        policy=BATCH_16,
        registry=metrics if metrics is not None else MetricsRegistry(),
    )
    report = loop.run(generator.arrivals(HORIZON))
    return {
        "answers": [
            (seq, repr(answer)) for seq, __, answer in loop.answers_for_replay()
        ],
        "makespan": report.makespan_cycles,
        "snapshot": ctx.counters.snapshot(),
    }


def observed_state(tracer, metrics):
    """What the observers hold: span/event counts and series totals."""
    return (
        len(list(tracer.spans())),
        len(tracer.events),
        metrics.dump()["series"],
    )


class TestObserverIsolation:
    def test_back_to_back_cells_do_not_leak_observers(self):
        plain_solo = run_cell()
        solo_tracer, solo_metrics = Tracer(), WindowedRegistry()
        run_cell(solo_tracer, solo_metrics)
        solo_state = observed_state(solo_tracer, solo_metrics)
        assert solo_state[0] > 0 and solo_metrics.total("serving.served") > 0

        tracer, metrics = Tracer(), WindowedRegistry()
        observed = run_cell(tracer, metrics)
        plain = run_cell()
        plain_again = run_cell()

        assert observed == plain_solo
        assert plain == plain_solo
        assert plain_again == plain_solo
        assert observed_state(tracer, metrics) == solo_state
        # The registry still closes against its own run's counters: the
        # plain runs after it added no sample.
        totals = PerfCounters(**observed["snapshot"])
        assert metrics.verify_closure(totals) == []

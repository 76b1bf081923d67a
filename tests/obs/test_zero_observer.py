"""The zero-observer-effect contract: tracing changes no simulated cycle.

These tests run real drivers twice — once traced, once untraced — and
compare the simulated results byte for byte.  Any divergence means an
instrumentation hook charged cycles, drew randomness or otherwise
perturbed the run, which the observability layer forbids outright.
"""

import json

from repro.obs.tracer import Tracer, nesting_violations


class TestWorkloadIdentity:
    def test_probe_workload_snapshots_are_byte_identical(self):
        from repro.obs.__main__ import run_figure2_workload

        tracer = Tracer()
        traced = run_figure2_workload(rows=50_000, tracer=tracer)
        untraced = run_figure2_workload(rows=50_000, tracer=None)
        assert json.dumps(traced["snapshot"], sort_keys=True) == json.dumps(
            untraced["snapshot"], sort_keys=True
        )
        assert traced["breakdown"] == untraced["breakdown"]
        # The traced run actually recorded something.
        assert tracer.roots and tracer.events

    def test_probe_workload_covers_all_required_layers(self):
        from repro.obs.__main__ import REQUIRED_SPAN_LAYERS, run_figure2_workload

        tracer = Tracer()
        run_figure2_workload(rows=50_000, tracer=tracer)
        span_layers = {span.category for span in tracer.spans()}
        assert set(REQUIRED_SPAN_LAYERS) <= span_layers
        instant_layers = {event.category for event in tracer.events}
        assert {"staging", "fault"} <= instant_layers
        for root in tracer.roots:
            assert nesting_violations(root) == []

    def test_untraced_run_records_nothing(self):
        from repro.obs.__main__ import run_figure2_workload

        tracer = Tracer()
        run_figure2_workload(rows=50_000, tracer=tracer)
        spans, events = len(list(tracer.spans())), len(tracer.events)
        untraced = run_figure2_workload(rows=50_000, tracer=None)
        assert untraced["platform"].tracer is None
        # The earlier run's tracer is not reachable from the new platform.
        assert len(list(tracer.spans())) == spans
        assert len(tracer.events) == events

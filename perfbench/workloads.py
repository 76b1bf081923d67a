"""The benchmark's three workloads, each a sequence of seeded sessions.

A session is one fresh system (platform, stores or cluster) and one
generated op stream.  :meth:`build` is set-up, :meth:`run` is the
timed phase and returns a :class:`SessionResult`, and :meth:`check`
verifies the outputs against the library's oracles outside the timed
phase.  Every input is a pure function of ``(seed, session index)``.

* ``serve_htap`` — open-loop, multi-tenant serving on one node.
* ``sharded_failover`` — one closed-loop client over a chaos-armed,
  rebalancing, replicated cluster.
* ``engine_durable`` — one closed-loop client through the reference
  engine with WAL, checkpoints and reorganisation.

In the closed loops the client runs background work (rebalance rounds,
checkpoints, reorganisation) after the op that triggers it, so that
op's latency, on both clocks, includes it: the next op waits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.reference_engine import ReferenceEngine
from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.errors import ReproError
from repro.execution.context import ExecutionContext
from repro.faults.chaos import MAX_SURFACED_RETRIES, deterministic_update_value
from repro.faults.injector import FaultInjector
from repro.hardware.platform import Platform
from repro.obs.metrics import MetricsRegistry
from repro.rebalance import (
    LiveMigrator,
    RebalancePlanner,
    Rebalancer,
    SkewDetector,
    build_skewed_stream,
)
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.manager import RecoveryManager
from repro.recovery.replicated import ReplicatedLog
from repro.recovery.verifier import state_digest
from repro.recovery.wal import LogRecordKind, WriteAheadLog
from repro.serving import (
    BATCH_16,
    AdmissionQueue,
    LayoutBackend,
    ServingLoop,
    WorkloadGenerator,
)
from repro.serving.verifier import (
    OLAP_ATTRIBUTES,
    build_item_store,
    build_tenants,
    replay_serial,
)
from repro.sharding import (
    CHAOS_SITES,
    FailureDetector,
    Router,
    ShardedExecutor,
    ShardingScheme,
    ShardMap,
    SingleNodeOracle,
)
from repro.sharding.verifier import build_columns, encode_answer
from repro.workload.htap import HTAPMix
from repro.workload.queries import QueryShape
from repro.workload.tpcc import generate_items, item_schema

from refclock import RefClock
from spans import SpanLog


@dataclass
class SessionResult:
    """What one session's timed phase produced.

    ``host_op_ms`` and ``sim_op_us`` hold one sample per completed op;
    ``sim_seconds`` is the simulated time the completed ops took
    (the makespan for the open loop, every charged cycle, background
    work included, for the closed loops).  ``layer`` holds counts read
    from the program's own state after the run.
    """

    ops: int = 0
    failed: int = 0
    host_s: float = 0.0
    host_op_ms: list[float] = field(default_factory=list)
    sim_op_us: list[float] = field(default_factory=list)
    sim_seconds: float = 0.0
    held_bytes: float = 0.0
    user_bytes: float = 1.0
    layer: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.ops - self.failed


def _session_seed(seed: int, index: int) -> int:
    return seed * 1_000 + index


def _counter_layer(counters: Any) -> dict[str, float]:
    """Staging and transfer counts from a counter bundle."""
    return {
        "staging_hits": counters.staging_hits,
        "staging_misses": counters.staging_misses,
        "pcie_bytes": counters.pcie_bytes,
        "transfers": counters.transfers,
    }


def _wal_bytes(wal: WriteAheadLog) -> int:
    return sum(record.nbytes for record in wal.durable_records())


# ----------------------------------------------------------------------
# serve_htap
# ----------------------------------------------------------------------
class _TimedBackend(LayoutBackend):
    """The layout backend, timing each dispatch unit on the host clock.

    Every member of a device batch completes with the batch, so each
    gets the batch's host time, as each gets its finish cycle.
    """

    def __init__(self, platform: Platform, store: Any, log: SpanLog | None) -> None:
        super().__init__(platform, store)
        self.samples: list[float] = []
        self.log = log
        self.clock: RefClock | None = None

    def run(self, spec: Any, ctx: ExecutionContext) -> Any:
        if self.log is not None:
            self.log.op_id += 1
        start = time.perf_counter()
        answer = super().run(spec, ctx)
        if self.clock is not None:
            self.samples.append(self.clock.since(start) * 1e3)
        return answer

    def run_batch(self, specs: Any, ctx: ExecutionContext) -> list[Any]:
        if self.log is not None:
            self.log.op_id += 1
        start = time.perf_counter()
        answers = super().run_batch(specs, ctx)
        if self.clock is not None:
            self.samples.extend([self.clock.since(start) * 1e3] * len(specs))
        return answers


class ServeHTAP:
    """Open-loop serving: ``ServingLoop`` over a 60k-row column store.

    Four Poisson tenants (``build_tenants``: 80% device sums, 20% point
    reads and updates) arrive at ``nominal_qps``, under the
    saturation rate, into a bounded admission queue with ``BATCH_16``
    batching.  The bound is far above the deepest backlog a nominal
    session builds (at most 52 over 600 seeded sessions), so no op of
    a timed session is shed.  Arrivals are precomputed on the simulated
    clock, so the generator is never late.  After the sessions, a fixed
    ladder of rates finds the highest rate that meets the latency
    limit; its top rung is overloaded, so the queue sits at its bound
    and sheds.
    """

    name = "serve_htap"
    rows = 60_000
    tenants = 4
    max_backlog = 128
    nominal_qps = 60_000.0
    arrivals_per_session = 2_000
    ladder_qps = (
        40_000.0, 50_000.0, 60_000.0, 65_000.0, 70_000.0, 75_000.0,
        80_000.0, 85_000.0, 90_000.0, 100_000.0, 150_000.0,
    )
    slo_p99_us = 1_000.0
    fixed_sessions = 20
    min_ops = 1_000

    def _serve(self, seed: int, qps: float, log: SpanLog | None) -> dict[str, Any]:
        platform = Platform.paper_testbed()
        store = build_item_store(platform, self.rows)
        frequency = platform.cpu.frequency_hz
        gap = self.tenants * frequency / qps
        generator = WorkloadGenerator(
            store.relation,
            build_tenants(self.tenants, gap, "poisson"),
            seed=seed,
            olap_attributes=OLAP_ATTRIBUTES,
        )
        arrivals = generator.arrivals(self.arrivals_per_session * frequency / qps)
        ctx = ExecutionContext(platform)
        registry = MetricsRegistry()
        backend = _TimedBackend(platform, store, log)
        loop = ServingLoop(
            backend, ctx, AdmissionQueue(self.max_backlog, None), BATCH_16, registry
        )
        return {
            "platform": platform, "store": store, "arrivals": arrivals,
            "ctx": ctx, "registry": registry, "backend": backend, "loop": loop,
        }

    def build(self, seed: int, index: int, log: SpanLog | None) -> dict[str, Any]:
        return self._serve(_session_seed(seed, index), self.nominal_qps, log)

    def run(self, session: dict[str, Any], clock: RefClock) -> SessionResult:
        platform = session["platform"]
        session["backend"].clock = clock
        start = time.perf_counter()
        report = session["loop"].run(session["arrivals"])
        host_s = clock.since(start)
        store = session["store"]
        staged = platform.staging.stats()["resident_bytes"]
        return SessionResult(
            ops=len(session["arrivals"]),
            failed=len(report.shed),
            host_s=host_s,
            host_op_ms=session["backend"].samples,
            sim_op_us=[
                platform.seconds(query.latency_cycles) * 1e6
                for query in report.executed
            ],
            sim_seconds=platform.seconds(report.makespan_cycles),
            held_bytes=sum(f.nbytes for f in store.fragments) + staged,
            user_bytes=store.relation.nsm_bytes,
            layer={
                "served": len(report.executed),
                "units": report.units,
                "arrivals": len(session["arrivals"]),
                "shed": len(report.shed),
                **_counter_layer(session["ctx"].counters),
            },
        )

    def check(self, session: dict[str, Any], result: SessionResult) -> None:
        served = session["loop"].answers_for_replay()
        oracle = replay_serial(self.rows, served)
        wrong = sum(
            encode_answer(answer) != encode_answer(expected)
            for (__, __, answer), expected in zip(served, oracle)
        )
        if wrong:
            result.problems.append(f"{wrong} served answers differ from replay_serial")
        if session["registry"].totals.snapshot() != session["ctx"].counters.snapshot():
            result.problems.append("registry totals differ from ctx.counters")

    def finish(self, seed: int, log: SpanLog | None) -> dict[str, float]:
        """Walk the rate ladder; the highest rung meeting the limit."""
        best = 0.0
        offered = shed = 0
        for rung, qps in enumerate(self.ladder_qps):
            session = self._serve(_session_seed(seed, 900 + rung), qps, log)
            report = session["loop"].run(session["arrivals"])
            offered += len(session["arrivals"])
            shed += len(report.shed)
            p99 = session["registry"].histogram("serving.latency_cycles").percentile(99.0)
            if not report.shed and session["platform"].seconds(p99) * 1e6 <= self.slo_p99_us:
                best = max(best, qps)
        return {"rate_at_slo_qps": best, "ladder_arrivals": offered, "ladder_shed": shed}


# ----------------------------------------------------------------------
# sharded_failover
# ----------------------------------------------------------------------
class ShardedFailover:
    """Closed-loop point traffic over a 4-node, 8-shard cluster.

    Range sharding, replication 2 and a replicated WAL; the three
    sharding chaos sites are armed at a low rate.  Traffic is the
    skewed stream of ``build_skewed_stream`` (one third updates), with
    a ``Rebalancer.rebalance_once`` round every
    ``rebalance_every`` ops.  Sessions are short because today's
    cost grows with log length.
    """

    name = "sharded_failover"
    rows = 2_048
    nodes = 4
    shards = 8
    replication = 2
    fault_rate = 0.01
    hot_fraction = 8 / 15
    ops_per_session = 30
    rebalance_every = 15
    fixed_sessions = 34
    min_ops = 1_000

    def build(self, seed: int, index: int, log: SpanLog | None) -> dict[str, Any]:
        session_seed = _session_seed(seed, index)
        platform = Platform()
        injector = FaultInjector(seed=session_seed)
        injector.install(platform)
        for site in CHAOS_SITES:
            injector.arm(site, self.fault_rate)
        cluster = Cluster(self.nodes)
        dfs = BlockStore(
            cluster, replication=self.replication, block_size=64 * 1024,
            injector=injector,
        )
        columns = build_columns(self.rows)
        shard_map = ShardMap(
            "orders", columns, cluster, dfs, self.shards, scheme=ShardingScheme.RANGE
        )
        replicated = ReplicatedLog(dfs, name="orders")
        wal = WriteAheadLog(platform, group_commit=1, replicator=replicated.on_flush)
        metrics = MetricsRegistry()
        executor = ShardedExecutor(
            Router(shard_map), injector, detector=FailureDetector(), wal=wal,
            replicated=replicated, metrics=metrics,
        )
        skew = SkewDetector(metrics, shard_map, threshold=1.25)
        rebalancer = Rebalancer(
            skew,
            RebalancePlanner(shard_map, target_ratio=1.15),
            LiveMigrator(shard_map, wal, injector, replicated=replicated),
        )
        return {
            "platform": platform, "injector": injector, "dfs": dfs,
            "columns": columns, "shard_map": shard_map, "wal": wal,
            "executor": executor, "skew": skew, "rebalancer": rebalancer,
            "ctx": ExecutionContext(platform=platform),
            "stream": build_skewed_stream(
                self.rows, self.ops_per_session, session_seed, self.hot_fraction
            ),
            "log": log, "answers": [], "data_lost": 0,
        }

    def _repair(self, session: dict[str, Any], error: ReproError) -> None:
        """Attribute a surfaced error, restart crashed nodes, re-replicate."""
        if getattr(error, "injected", False):
            session["injector"].report.record_surfaced()
        else:
            session["data_lost"] += 1
        executor, ctx = session["executor"], session["ctx"]
        for node_name in executor.dfs.down_nodes:
            executor.dfs.restore_node(node_name)
            executor.detector.revive(node_name)
        if executor.dfs.under_replicated():
            executor.dfs.re_replicate(ctx.counters)

    def _with_retries(self, session: dict[str, Any], call: Any) -> tuple[bool, Any]:
        for __ in range(MAX_SURFACED_RETRIES + 1):
            try:
                return True, call()
            except ReproError as error:
                self._repair(session, error)
        return False, None

    def run(self, session: dict[str, Any], clock: RefClock) -> SessionResult:
        executor, ctx, log = session["executor"], session["ctx"], session["log"]
        platform = session["platform"]
        result = SessionResult()
        committed = aborted = 0
        host_total = 0.0
        stream = session["stream"]
        for index, query in enumerate(stream):
            if log is not None:
                log.op_id += 1
            start = time.perf_counter()
            cycles = ctx.counters.cycles
            ok, answer = self._with_retries(
                session, lambda: executor.run(query, ctx)
            )
            if (index + 1) % self.rebalance_every == 0 and index + 1 < len(stream):
                done, outcome = self._with_retries(
                    session, lambda: session["rebalancer"].rebalance_once(ctx)
                )
                if done:
                    committed += outcome.committed
                    aborted += outcome.aborted
            elapsed = clock.since(start)
            clock.between_ops()
            host_total += elapsed
            result.ops += 1
            session["answers"].append(answer.encoded() if ok else None)
            if not ok:
                result.failed += 1
                continue
            result.host_op_ms.append(elapsed * 1e3)
            result.sim_op_us.append(
                platform.seconds(ctx.counters.cycles - cycles) * 1e6
            )
        result.host_s = host_total
        result.sim_seconds = platform.seconds(ctx.counters.cycles)
        dfs, shard_map = session["dfs"], session["shard_map"]
        paths = dfs.paths()
        dfs_bytes = sum(
            block.size * len(block.replicas)
            for path in paths
            for block in dfs.file(path).blocks
        )
        states = [shard_map.state(shard.shard_id) for shard in shard_map.shards]
        memory_bytes = sum(
            array.nbytes
            for state in states
            if state is not None
            for array in state.values()
        )
        wal_bytes = _wal_bytes(session["wal"])
        result.user_bytes = sum(a.nbytes for a in session["columns"].values())
        result.held_bytes = dfs_bytes + memory_bytes + wal_bytes
        report = session["injector"].report
        result.layer = {
            **executor.stats.snapshot(),
            "injected": report.injected,
            "retried": report.retried,
            "fallen_back": report.fallen_back,
            "surfaced": report.surfaced,
            "files": len(paths),
            "wal_bytes": wal_bytes,
            "migrations_committed": committed,
            "migrations_aborted": aborted,
            "load_ratio_after": session["skew"].snapshot().ratio,
            **_counter_layer(ctx.counters),
        }
        return result

    def check(self, session: dict[str, Any], result: SessionResult) -> None:
        oracle = SingleNodeOracle(session["columns"], session["executor"].update_value)
        wrong = sum(
            answer is not None and answer != encode_answer(oracle.answer(query))
            for query, answer in zip(session["stream"], session["answers"])
        )
        if wrong:
            result.problems.append(f"{wrong} answers differ from SingleNodeOracle")
        unaccounted = session["injector"].report.unaccounted
        if unaccounted:
            result.problems.append(f"faults.unaccounted = {unaccounted}")
        if session["data_lost"]:
            result.problems.append(f"{session['data_lost']} organic failures (data loss)")

    def finish(self, seed: int, log: SpanLog | None) -> dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# engine_durable
# ----------------------------------------------------------------------
class EngineDurable:
    """Closed-loop HTAP mix through the Section IV-C reference engine.

    Record-centric materializations, attribute-centric sums and
    WAL-logged single-statement update transactions, with a
    reorganisation every ``reorganize_every`` ops and a fuzzy
    checkpoint every ``checkpoint_every``.  The device holds two of
    the three numeric columns, so the hot set does not fit.
    """

    name = "engine_durable"
    relation = "item"
    rows = 10_000
    device_capacity = 160_000
    group_commit = 4
    ops_per_session = 1_000
    checkpoint_every = 500
    reorganize_every = 50
    fixed_sessions = 6
    min_ops = 1_000

    def _engine(self, platform: Platform) -> ReferenceEngine:
        engine = ReferenceEngine(platform)
        engine.create(self.relation, item_schema())
        return engine

    def _loaded(self, platform: Platform, columns: dict[str, np.ndarray]) -> ReferenceEngine:
        engine = self._engine(platform)
        engine.load(self.relation, {n: c.copy() for n, c in columns.items()})
        return engine

    def build(self, seed: int, index: int, log: SpanLog | None) -> dict[str, Any]:
        session_seed = _session_seed(seed, index)
        columns = generate_items(self.rows, seed=session_seed)
        platform = Platform.paper_testbed(device_capacity=self.device_capacity)
        engine = self._loaded(platform, columns)
        wal = WriteAheadLog(platform, group_commit=self.group_commit)
        store = CheckpointStore(platform)
        ctx = ExecutionContext(platform, wal=wal)
        store.take(engine, self.relation, wal, ctx)  # the load's durability point
        mix = HTAPMix(
            engine.relation(self.relation),
            oltp_fraction=0.6,
            oltp_write_fraction=0.5,
            seed=session_seed,
        )
        return {
            "platform": platform, "columns": columns, "engine": engine,
            "wal": wal, "store": store, "ctx": ctx, "log": log,
            "stream": mix.query_list(self.ops_per_session),
        }

    def _op(self, session: dict[str, Any], index: int, query: Any) -> None:
        engine, ctx, wal = session["engine"], session["ctx"], session["wal"]
        name = self.relation
        if query.shape is QueryShape.POINT_UPDATE:
            attribute, position = query.attributes[0], query.positions[0]
            after = deterministic_update_value(index)
            wal.log_begin(index, ctx)
            before = engine.sum_at(name, attribute, [position], ctx)
            wal.log_update(index, name, attribute, position, before, after, ctx)
            engine.update(name, position, attribute, after, ctx)
            wal.log_commit(index, ctx)
        elif query.shape is QueryShape.FULL_SUM:
            engine.sum(name, query.attributes[0], ctx)
        else:  # HTAPMix's third shape: POINT_MATERIALIZE
            engine.materialize(name, list(query.positions), ctx)

    def run(self, session: dict[str, Any], clock: RefClock) -> SessionResult:
        engine, ctx, log = session["engine"], session["ctx"], session["log"]
        platform = session["platform"]
        result = SessionResult()
        start_cycles = ctx.counters.cycles
        host_total = 0.0
        for index, query in enumerate(session["stream"]):
            if log is not None:
                log.op_id += 1
            start = time.perf_counter()
            cycles = ctx.counters.cycles
            if log is None:
                self._op(session, index, query)
            else:
                op_name = "engines.op." + query.shape.name.lower()
                with log.span(op_name, ctx.counters):
                    self._op(session, index, query)
            if (index + 1) % self.reorganize_every == 0:
                engine.reorganize(self.relation, ctx)
            if (index + 1) % self.checkpoint_every == 0:
                session["store"].take(engine, self.relation, session["wal"], ctx)
            elapsed = clock.since(start)
            clock.between_ops()
            host_total += elapsed
            result.ops += 1
            result.host_op_ms.append(elapsed * 1e3)
            result.sim_op_us.append(
                platform.seconds(ctx.counters.cycles - cycles) * 1e6
            )
        result.host_s = host_total
        result.sim_seconds = platform.seconds(ctx.counters.cycles - start_cycles)
        managed = engine.managed(self.relation)
        fragments = {
            id(fragment): fragment
            for layout in managed.layouts
            for fragment in layout.fragments
        }
        wal_bytes = _wal_bytes(session["wal"])
        checkpoint_bytes = sum(
            c.nbytes for c in session["store"].checkpoints(self.relation)
        )
        result.user_bytes = managed.relation.nsm_bytes
        result.held_bytes = (
            sum(f.nbytes for f in fragments.values()) + wal_bytes + checkpoint_bytes
        )
        result.layer = {
            "device_columns": len(engine.placed_columns(self.relation)),
            "wal_bytes": wal_bytes,
            **_counter_layer(ctx.counters),
        }
        return result

    def check(self, session: dict[str, Any], result: SessionResult) -> None:
        """Crash, recover onto a fresh engine, compare with the oracle."""
        wal = session["wal"]
        wal.crash()
        platform = Platform.paper_testbed(device_capacity=self.device_capacity)
        ctx = ExecutionContext(platform)
        start = time.perf_counter()
        recovered, __ = RecoveryManager(wal, session["store"]).recover(
            lambda: self._engine(platform), self.relation, ctx
        )
        result.layer["restart_host_ms"] = (time.perf_counter() - start) * 1e3
        result.layer["restart_sim_cycles"] = ctx.counters.cycles
        oracle_platform = Platform.paper_testbed(device_capacity=self.device_capacity)
        oracle = self._loaded(oracle_platform, session["columns"])
        oracle_ctx = ExecutionContext(oracle_platform)
        durable = wal.durable_records()
        committed = {
            record.txn_id for record in durable if record.kind is LogRecordKind.COMMIT
        }
        for record in durable:
            if record.kind is LogRecordKind.UPDATE and record.txn_id in committed:
                oracle.update(
                    self.relation, record.position, record.attribute,
                    record.after, oracle_ctx,
                )
        if state_digest(recovered, self.relation) != state_digest(oracle, self.relation):
            result.problems.append("recovered state differs from committed-prefix oracle")

    def finish(self, seed: int, log: SpanLog | None) -> dict[str, float]:
        return {}


WORKLOADS = {
    workload.name: workload
    for workload in (ServeHTAP, ShardedFailover, EngineDurable)
}

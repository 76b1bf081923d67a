"""Chaos verification for sharded scatter-gather execution.

The claim worth gating on is end-to-end: *with node-kill, dropped-
response and slow-link faults armed, every query's merged answer is
byte-identical to an unfaulted single-node oracle, every injected
fault is accounted for in the resilience report, and at replication
>= 2 no fault surfaces past the failover machinery.*

:func:`run_chaos` is that experiment: it builds a cluster, shards an
integer-valued float64 relation over it (integer values keep float
sums exact, so shard-order-independent partial sums compare byte-for-
byte against the oracle), drives a mixed read/write query stream
through :class:`~repro.sharding.executor.ShardedExecutor` under a
seeded fault schedule, and checks each merged answer against a plain-
numpy :class:`SingleNodeOracle` twin.  Surfaced faults are the
harness's to handle, exactly as in :mod:`repro.faults.chaos`: the
fault is recorded, crashed processes are restarted
(:meth:`~repro.distributed.dfs.BlockStore.restore_node` — fail-stop
retains disks), and the query is re-issued.

``python -m repro.sharding`` runs this across a seed × fault-site
matrix plus a nodes × shards × fault-rate sweep and writes
``BENCH_distributed.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.errors import ReproError
from repro.execution.context import ExecutionContext
from repro.faults.chaos import MAX_SURFACED_RETRIES
from repro.faults.injector import FaultInjector
from repro.hardware.platform import Platform
from repro.obs.metrics import MetricsRegistry
from repro.recovery.replicated import ReplicatedLog
from repro.recovery.wal import WriteAheadLog
from repro.sharding.detector import FailureDetector
from repro.sharding.executor import (
    SITE_NET_DROP_RESPONSE,
    SITE_NET_SLOW_LINK,
    SITE_SHARD_NODE_CRASH,
    ShardedExecutor,
)
from repro.sharding.placement import ShardMap, ShardingScheme
from repro.sharding.router import Router
from repro.workload.queries import QueryShape, QuerySpec, random_positions

__all__ = [
    "CHAOS_SITES",
    "build_columns",
    "build_query_stream",
    "encode_answer",
    "SingleNodeOracle",
    "ShardedRunResult",
    "cell_problems",
    "run_surfaced",
    "run_checked",
    "build_cluster",
    "run_chaos",
]

#: The three fault sites this tier registers and exercises.
CHAOS_SITES: tuple[str, ...] = (
    SITE_SHARD_NODE_CRASH,
    SITE_NET_DROP_RESPONSE,
    SITE_NET_SLOW_LINK,
)

#: Positions touched by each point/position query of the stream.
POSITIONS_PER_QUERY = 24


def build_columns(row_count: int) -> dict[str, np.ndarray]:
    """The verifier's relation: two integer-valued float64 columns.

    Integer values (small residues) make every partial sum exact in
    float64, so the sharded merge is bit-equal to the oracle's direct
    sum regardless of shard count or summation order.
    """
    rows = np.arange(row_count)
    return {
        "k": ((rows * 13) % 1009).astype(np.float64),
        "v": ((rows * 7) % 997).astype(np.float64),
    }


def build_query_stream(
    row_count: int, query_count: int, seed: int
) -> tuple[QuerySpec, ...]:
    """A deterministic mixed stream cycling all four query shapes."""
    shapes = (
        QueryShape.POSITION_SUM,
        QueryShape.POINT_MATERIALIZE,
        QueryShape.FULL_SUM,
        QueryShape.POINT_UPDATE,
    )
    queries: list[QuerySpec] = []
    for index in range(query_count):
        shape = shapes[index % len(shapes)]
        if shape is QueryShape.FULL_SUM:
            queries.append(QuerySpec(shape, "orders", ("v",)))
            continue
        positions = random_positions(
            row_count,
            min(POSITIONS_PER_QUERY, row_count),
            seed=seed * 10_007 + index,
        )
        attributes = (
            ("k", "v") if shape is QueryShape.POINT_MATERIALIZE else ("v",)
        )
        queries.append(QuerySpec(shape, "orders", attributes, positions))
    return tuple(queries)


def encode_answer(value: Any) -> bytes:
    """The canonical byte encoding shared with ``ShardedResult.encoded``."""
    if isinstance(value, dict):
        return repr(sorted(value.items())).encode()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return repr(value).encode()


class SingleNodeOracle:
    """The unfaulted single-node twin: plain numpy, no cluster, no cost.

    Evaluates the same query stream on a private copy of the base
    columns, applying the same deterministic update values, so its
    answers are the ground truth the sharded run must match byte-for-
    byte.
    """

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        update_value: Callable[[int], float],
    ) -> None:
        self.columns = {attr: array.copy() for attr, array in columns.items()}
        self.update_value = update_value

    def answer(self, query: QuerySpec) -> Any:
        """The ground-truth merged answer for *query* (applies updates)."""
        if query.shape is QueryShape.FULL_SUM:
            return {
                attr: float(self.columns[attr].sum())
                for attr in query.attributes
            }
        positions = np.array(query.positions)
        if query.shape is QueryShape.POSITION_SUM:
            return {
                attr: float(self.columns[attr][positions].sum())
                for attr in query.attributes
            }
        if query.shape is QueryShape.POINT_MATERIALIZE:
            return np.array(
                [
                    [float(self.columns[attr][p]) for attr in query.attributes]
                    for p in query.positions
                ]
            )
        for position in query.positions:
            value = float(self.update_value(int(position)))
            for attr in query.attributes:
                self.columns[attr][position] = value
        return len(query.positions)


@dataclass(frozen=True)
class ShardedRunResult:
    """Everything one chaos run reports (and the determinism gate compares).

    Attributes
    ----------
    seed / node_count / shard_count / replication / fault_rate / sites:
        The cell's configuration.
    queries / matched / mismatched:
        Stream length and per-query byte-comparison outcomes.
    data_lost:
        Organic (non-injected) failures observed — replication's honest
        limit; zero at replication >= 2.
    cycles:
        Total simulated cycles charged.
    resilience / detector / executor:
        Final snapshots of the resilience report, failure detector and
        executor robustness stats.
    accounting_ok:
        Whether every injected fault has exactly one recorded outcome.
    """

    seed: int
    node_count: int
    shard_count: int
    replication: int
    fault_rate: float
    sites: tuple[str, ...]
    queries: int
    matched: int
    mismatched: int
    data_lost: int
    cycles: float
    resilience: dict[str, float]
    detector: dict[str, float]
    executor: dict[str, int]
    accounting_ok: bool

    @property
    def problems(self) -> list[str]:
        """Every gate this cell fails: mismatches, accounting, data loss."""
        return cell_problems(self)

    @property
    def ok(self) -> bool:
        """The cell's verdict: no gate failed."""
        return not self.problems

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready record for ``BENCH_distributed.json``."""
        return {**asdict(self), "ok": self.ok, "problems": self.problems}


def cell_problems(result: Any) -> list[str]:
    """The gates every chaos cell shares, as failure lines: answers match
    the oracle, the fault account balances, no organic data loss."""
    problems = []
    if result.mismatched:
        problems.append(f"{result.mismatched} answers diverged from the oracle")
    if not result.accounting_ok:
        problems.append("fault accounting does not balance")
    if result.data_lost:
        problems.append(f"data lost {result.data_lost}x")
    return problems


def _repair(executor: ShardedExecutor, ctx: ExecutionContext) -> None:
    """Restart crashed processes and re-establish the replication target.

    Fail-stop crashes retain disks, so a restart brings the node's
    replicas straight back; shard serving states rebuild lazily on the
    next access (DFS base + committed WAL replay).
    """
    dfs = executor.dfs
    for node_name in dfs.down_nodes:
        dfs.restore_node(node_name)
        executor.detector.revive(node_name)
    if dfs.under_replicated():
        dfs.re_replicate(ctx.counters)


def run_surfaced(
    operation: Callable[[], Any], executor: ShardedExecutor, ctx: ExecutionContext
) -> tuple[Any, int]:
    """Run *operation*, handling surfaced faults; returns (result, organic).

    An injected fault is recorded as surfaced, an organic one counted;
    either way crashed processes restart and *operation* is re-issued,
    at most ``MAX_SURFACED_RETRIES`` times.
    """
    organic = 0
    for attempt in range(MAX_SURFACED_RETRIES + 1):
        try:
            return operation(), organic
        except ReproError as error:
            if getattr(error, "injected", False):
                executor.injector.report.record_surfaced()
            else:
                organic += 1
            _repair(executor, ctx)
            if attempt == MAX_SURFACED_RETRIES:
                raise


def run_checked(
    query: QuerySpec, oracle: SingleNodeOracle, executor: ShardedExecutor,
    ctx: ExecutionContext,
) -> tuple[bool, int]:
    """One verified query; returns (matched the oracle, organic failures)."""
    expected = encode_answer(oracle.answer(query))
    result, organic = run_surfaced(
        lambda: executor.run(query, ctx), executor, ctx
    )
    return result.encoded() == expected, organic


def build_cluster(
    seed: int, columns: dict[str, np.ndarray], node_count: int,
    shard_count: int, replication: int, fault_rate: float,
    sites: Sequence[str], scheme: ShardingScheme = ShardingScheme.RANGE,
    metrics: MetricsRegistry | None = None,
) -> tuple[ShardedExecutor, ExecutionContext]:
    """A fresh chaos cluster serving *columns* as relation ``orders``.

    The shard map, WAL, replicated log and the injector arming *sites*
    at *fault_rate* are all reachable from the returned executor.
    """
    platform = Platform()
    injector = FaultInjector(seed=seed)
    injector.install(platform)
    for site in sites:
        injector.arm(site, fault_rate)
    cluster = Cluster(node_count)
    dfs = BlockStore(
        cluster, replication=replication, block_size=64 * 1024, injector=injector
    )
    shard_map = ShardMap(
        "orders", columns, cluster, dfs, shard_count, scheme=scheme
    )
    replicated = ReplicatedLog(dfs, name="orders")
    wal = WriteAheadLog(platform, group_commit=1, replicator=replicated.on_flush)
    executor = ShardedExecutor(
        Router(shard_map),
        injector,
        detector=FailureDetector(),
        wal=wal,
        replicated=replicated,
        metrics=metrics,
    )
    return executor, ExecutionContext(platform=platform)


def run_chaos(
    seed: int = 0,
    node_count: int = 4,
    shard_count: int = 8,
    replication: int = 2,
    fault_rate: float = 0.05,
    sites: Sequence[str] = CHAOS_SITES,
    query_count: int = 48,
    row_count: int = 2048,
    scheme: ShardingScheme = ShardingScheme.RANGE,
    repair_every: int = 8,
) -> ShardedRunResult:
    """One seeded chaos run: sharded execution vs. the oracle.

    Arms *sites* at *fault_rate* on a fresh cluster, executes the
    deterministic query stream, byte-compares every merged answer
    against the :class:`SingleNodeOracle`, and reports the outcome.
    Every *repair_every* queries (and after every surfaced fault)
    crashed processes are restarted, keeping fault sites live across
    the whole stream.  The result is a pure function of the arguments
    — the CLI runs each cell twice and requires identical records.
    """
    columns = build_columns(row_count)
    executor, ctx = build_cluster(
        seed, columns, node_count, shard_count, replication, fault_rate,
        sites, scheme,
    )
    oracle = SingleNodeOracle(columns, executor.update_value)
    queries = build_query_stream(row_count, query_count, seed)
    matched = data_lost = 0
    for index, query in enumerate(queries):
        hit, organic = run_checked(query, oracle, executor, ctx)
        matched += hit
        data_lost += organic
        if repair_every and (index + 1) % repair_every == 0:
            _repair(executor, ctx)
    report = executor.injector.report
    return ShardedRunResult(
        seed=seed,
        node_count=node_count,
        shard_count=shard_count,
        replication=replication,
        fault_rate=fault_rate,
        sites=tuple(sites),
        queries=len(queries),
        matched=matched,
        mismatched=len(queries) - matched,
        data_lost=data_lost,
        cycles=ctx.counters.cycles,
        resilience=report.snapshot(),
        detector=executor.detector.snapshot(),
        executor=executor.stats.snapshot(),
        accounting_ok=report.unaccounted == 0,
    )

"""In-memory span recording around the library's layer boundaries.

The benchmark attributes host time to layers without changing a line
of the library: :func:`traced` swaps each boundary's function for a
timing wrapper *where its caller looks the name up* (a module that did
``from x import f`` holds its own reference, so ``f`` is replaced in
that module, not in ``x``), and restores every original on exit.

A span is ``(name, start_ns, end_ns, parent, op_id, sim_cycles)``.
``sim_cycles`` is the inclusive delta of ``ctx.counters.cycles`` for
boundaries that take an execution context; a span's *self* value is
its inclusive value minus that of its direct children.  Host time that
no boundary covers lands in the root span, reported as ``other``.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: The root span of every traced session; its self time is ``other``.
ROOT = "other"


class SpanLog:
    """Spans as parallel lists (cheap to append), plus side counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.sims: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.sims.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int, sim_cycles: float = 0.0) -> None:
        """End span *index* (the innermost open one)."""
        self.ends[index] = time.perf_counter_ns()
        self.sims[index] = sim_cycles
        self._stack.pop()

    @contextmanager
    def span(self, name: str, counters: Any = None) -> Iterator[None]:
        """A span around a block; *counters* supplies the sim delta."""
        before = counters.cycles if counters is not None else 0.0
        index = self.open(name)
        try:
            yield
        finally:
            self.close(
                index, counters.cycles - before if counters is not None else 0.0
            )

    def self_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self host ms and self sim cycles."""
        child_ns = [0] * len(self.names)
        child_sim = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[index] - self.starts[index]
                child_sim[parent] += self.sims[index]
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "host_self_ms": 0.0, "sim_cycles": 0.0}
        )
        for index, name in enumerate(self.names):
            entry = totals[name]
            entry["calls"] += 1
            entry["host_self_ms"] += (
                self.ends[index] - self.starts[index] - child_ns[index]
            ) / 1e6
            entry["sim_cycles"] += self.sims[index] - child_sim[index]
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one gzipped tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\top_id\tsim_cycles\n")
            for index, name in enumerate(self.names):
                out.write(
                    f"{index}\t{name}\t{self.starts[index]}\t{self.ends[index]}"
                    f"\t{self.parents[index]}\t{self.ops[index]}"
                    f"\t{self.sims[index]!r}\n"
                )


def _wrap(
    log: SpanLog,
    function: Callable[..., Any],
    name: str,
    on_result: Callable[[SpanLog, Any], None] | None,
) -> Callable[..., Any]:
    """*function* inside a span; sim cycles when it takes ``ctx``."""
    params = list(inspect.signature(function).parameters)
    ctx_at = params.index("ctx") if "ctx" in params else None

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counters = None
        if ctx_at is not None:
            ctx = args[ctx_at] if len(args) > ctx_at else kwargs.get("ctx")
            counters = ctx.counters if ctx is not None else None
        before = counters.cycles if counters is not None else 0.0
        index = log.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            log.close(
                index, counters.cycles - before if counters is not None else 0.0
            )
        if on_result is not None:
            on_result(log, result)
        return result

    return wrapper


def _count(key: str, measure: Callable[[Any], float]) -> Callable[[SpanLog, Any], None]:
    def record(log: SpanLog, result: Any) -> None:
        log.counts[key] += measure(result)

    return record


def boundaries() -> list[tuple[Any, str, str, Callable[[SpanLog, Any], None] | None]]:
    """Every wrapped boundary: (owner, attribute, span name, on_result).

    The owner is the module or class the *caller* resolves the name
    through.
    """
    from repro.adapt.statistics import AttributeStatistics
    from repro.core import reference_engine
    from repro.core.reference_engine import ReferenceEngine
    from repro.distributed.dfs import BlockStore
    from repro.engines import base as engines_base
    from repro.execution.context import ExecutionContext
    from repro.obs.metrics import MetricsRegistry
    from repro.rebalance import migrator
    from repro.rebalance.driver import Rebalancer
    from repro.recovery.checkpoint import CheckpointStore
    from repro.recovery.replicated import ReplicatedLog
    from repro.recovery.wal import WriteAheadLog
    from repro.serving import server
    from repro.serving.admission import AdmissionQueue
    from repro.sharding import executor
    from repro.sharding.executor import ShardedExecutor

    return [
        (AdmissionQueue, "admit", "serving.admit", None),
        (server.ServingLoop, "run", "serving.loop", None),
        (server, "materialize_rows", "execution.materialize_rows", None),
        (engines_base, "materialize_rows", "execution.materialize_rows", None),
        (server, "run_device_batch", "execution.device_batch", None),
        (server, "device_sum_column", "execution.device_sum", None),
        (reference_engine, "device_sum_column", "execution.device_sum", None),
        (ExecutionContext, "settle", "obs.settle", None),
        (MetricsRegistry, "observe_query", "obs.settle", None),
        (ShardedExecutor, "run", "sharding.run", None),
        (
            executor, "load_entries", "sharding.load_entries",
            _count("sharding.load_entries.entries", len),
        ),
        (
            migrator, "load_entries", "sharding.load_entries",
            _count("sharding.load_entries.entries", len),
        ),
        (executor, "replay_updates", "sharding.replay_updates", None),
        (migrator, "replay_updates", "sharding.replay_updates", None),
        (WriteAheadLog, "flush", "recovery.wal_flush", None),
        (
            ReplicatedLog, "read_back", "recovery.read_back",
            _count("recovery.read_back.bytes", lambda r: sum(map(len, r))),
        ),
        (CheckpointStore, "take", "recovery.checkpoint", None),
        (
            BlockStore, "read", "distributed.read",
            _count("distributed.read.bytes", lambda r: len(r[0])),
        ),
        (BlockStore, "re_replicate", "distributed.re_replicate", None),
        (Rebalancer, "rebalance_once", "rebalance.round", None),
        (
            ReferenceEngine, "reorganize", "engines.reorganize",
            _count("engines.reorganize.changed", bool),
        ),
        (AttributeStatistics, "from_events", "adapt.statistics", None),
    ]


@contextmanager
def traced(log: SpanLog) -> Iterator[SpanLog]:
    """Install every boundary wrapper for the block; restore on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, name, on_result in boundaries():
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            if isinstance(original, classmethod):
                replacement: Any = classmethod(
                    _wrap(log, original.__func__, name, on_result)
                )
            else:
                replacement = _wrap(log, original, name, on_result)
            setattr(owner, attribute, replacement)
        yield log
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

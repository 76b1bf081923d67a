"""A replicated block store (the "slightly modified Hadoop DFS" of ES2).

ES2 writes PAX-formatted tuplets to the DFS "as a raw-byte device".
:class:`BlockStore` models exactly that surface: fixed-size blocks,
replicated onto *replication* distinct nodes' disks, with reads served
from the nearest replica (free when local, one network transfer when
remote).  Payload bytes are carried opaquely — the storage engine above
owns the format.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.distributed.cluster import Cluster, ClusterNode
from repro.errors import DistributedError
from repro.faults.injector import SITE_DFS_READ, SITE_NODE_CRASH, FaultInjector
from repro.hardware.event import Cycles, PerfCounters
from repro.hardware.memory import Allocation

__all__ = ["DFSBlock", "DFSFile", "BlockStore"]

DEFAULT_BLOCK_SIZE = 64 * 1024 * 1024  # HDFS-style 64 MiB blocks


@dataclass
class DFSBlock:
    """One replicated block: payload plus its per-node disk allocations."""

    index: int
    size: int
    payload: bytes
    replicas: dict[str, Allocation] = field(default_factory=dict)

    @property
    def replica_nodes(self) -> tuple[str, ...]:
        """Names of nodes holding a replica."""
        return tuple(self.replicas)


@dataclass
class DFSFile:
    """An ordered list of blocks under one path."""

    path: str
    blocks: list[DFSBlock] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Total payload bytes."""
        return sum(block.size for block in self.blocks)


class BlockStore:
    """Replicated block storage over a :class:`Cluster`'s disks."""

    def __init__(
        self,
        cluster: Cluster,
        replication: int = 3,
        block_size: int = DEFAULT_BLOCK_SIZE,
        injector: FaultInjector | None = None,
    ) -> None:
        if block_size < 1:
            raise DistributedError(f"block_size must be >= 1, got {block_size}")
        if replication > len(cluster):
            raise DistributedError(
                f"replication {replication} exceeds cluster size {len(cluster)}"
            )
        self.cluster = cluster
        self.replication = replication
        self.block_size = block_size
        #: Optional shared fault injector: arms the ``dfs.block-read``
        #: site on :meth:`read` and the ``cluster.node-crash`` site on
        #: :meth:`inject_node_crash`.  A plain attribute so it can be
        #: (un)installed at any point in a store's life.
        self.injector = injector
        self._files: dict[str, DFSFile] = {}
        #: Nodes currently unavailable: their replicas are skipped by
        #: reads and they receive no new placements until
        #: :meth:`restore_node`.  :meth:`fail_node` (disk loss) and
        #: :meth:`mark_down` (process crash) both add here.
        self._down: set[str] = set()

    # ------------------------------------------------------------------
    def write(self, path: str, payload: bytes) -> DFSFile:
        """Store *payload* under *path*, splitting and replicating blocks.

        Re-writing an existing path is an error (HDFS files are
        write-once); delete first.
        """
        if path in self._files:
            raise DistributedError(f"path {path!r} already exists (write-once)")
        dfs_file = DFSFile(path)
        for index in range(0, max(len(payload), 1), self.block_size):
            chunk = payload[index : index + self.block_size]
            block = DFSBlock(index // self.block_size, len(chunk), chunk)
            # crc32, not hash(): placement must be identical across
            # processes (PYTHONHASHSEED randomizes str hashing), or two
            # CLI runs of the same benchmark would shard differently.
            key = zlib.crc32(f"{path}#{block.index}".encode()) & 0x7FFFFFFF
            nodes = self._placement_nodes(key)
            for node in nodes:
                block.replicas[node.name] = node.disk.allocate(
                    len(chunk), f"dfs:{path}#{block.index}"
                )
            dfs_file.blocks.append(block)
        self._files[path] = dfs_file
        return dfs_file

    def _placement_nodes(self, key: int) -> list[ClusterNode]:
        """Pick ``replication`` placement targets, preferring up nodes.

        With no nodes down this is exactly
        :meth:`~repro.distributed.cluster.Cluster.replica_nodes`.  With
        nodes down the rotation starting at the key's home is walked
        past them, so new blocks (e.g. replicated WAL segments written
        while a crashed node awaits replacement) land on available
        disks; only when fewer than ``replication`` nodes are up do
        down nodes fill the remainder (their replicas come back on
        :meth:`restore_node`).
        """
        if not self._down:
            return self.cluster.replica_nodes(key, self.replication)
        start = key % len(self.cluster.nodes)
        rotation = [
            self.cluster.nodes[(start + offset) % len(self.cluster.nodes)]
            for offset in range(len(self.cluster.nodes))
        ]
        up = [node for node in rotation if node.name not in self._down]
        down = [node for node in rotation if node.name in self._down]
        return (up + down)[: self.replication]

    def _up_replicas(self, block: DFSBlock) -> list[str]:
        """Names of the block's replicas on currently-available nodes."""
        return [name for name in block.replicas if name not in self._down]

    def read(
        self,
        path: str,
        reader: ClusterNode,
        counters: PerfCounters | None = None,
    ) -> tuple[bytes, Cycles]:
        """Read the whole file from *reader*'s point of view.

        Blocks with a local replica cost nothing extra; remote blocks
        cost one network transfer each.  Returns (payload, cycles).
        Replicas on down nodes (crashed, not yet restored) are skipped;
        a block with no available replica raises
        :class:`~repro.errors.DistributedError` — that is true data
        unavailability, not an injected fault.

        When a fault injector is armed at ``dfs.block-read``, the
        nearest replica of a block may fail to read: with another
        replica available the store degrades to it (one extra network
        transfer, recorded as a recovery), otherwise the injected
        :class:`~repro.errors.DistributedError` surfaces.
        """
        dfs_file = self.file(path)
        payload = bytearray()
        cost: Cycles = 0.0
        for block in dfs_file.blocks:
            available = self._up_replicas(block)
            if not available:
                raise DistributedError(
                    f"block {path!r}#{block.index} has no available replica "
                    f"({len(block.replicas)} total, all on down nodes)"
                )
            payload.extend(block.payload)
            if reader.name not in available:
                cost += self.cluster.network.transfer_cost(block.size, counters)
            if self.injector is not None and self.injector.fires(
                SITE_DFS_READ, counters
            ):
                if len(available) <= 1:
                    error = DistributedError(
                        f"injected fault at {SITE_DFS_READ!r}: block "
                        f"{path!r}#{block.index} unreadable and no other "
                        "replica is left"
                    )
                    error.injected = True
                    raise error
                # Degrade to another replica — always a remote re-read.
                cost += self.cluster.network.transfer_cost(block.size, counters)
                self.injector.report.record_recovered()
                if counters is not None:
                    counters.fault_recoveries += 1
        return bytes(payload), cost

    def delete(self, path: str) -> None:
        """Remove a file, freeing every replica's disk allocation."""
        dfs_file = self.file(path)
        for block in dfs_file.blocks:
            for node_name, allocation in block.replicas.items():
                self.cluster.node(node_name).disk.free(allocation)
        del self._files[path]

    def file(self, path: str) -> DFSFile:
        """Look up a file by path."""
        try:
            return self._files[path]
        except KeyError:
            raise DistributedError(f"no such DFS path {path!r}") from None

    def paths(self) -> tuple[str, ...]:
        """All stored paths."""
        return tuple(self._files)

    def under_replicated(self) -> list[tuple[str, int]]:
        """(path, block index) pairs whose *available* replicas are below target.

        Empty in healthy stores; fault-injection tests knock replicas
        out via :meth:`fail_node` and assert re-replication accounting.
        Replicas held by down nodes do not count — until the node is
        restored they cannot serve a read.
        """
        problems: list[tuple[str, int]] = []
        for path, dfs_file in self._files.items():
            for block in dfs_file.blocks:
                if len(self._up_replicas(block)) < self.replication:
                    problems.append((path, block.index))
        return problems

    @property
    def down_nodes(self) -> tuple[str, ...]:
        """Names of nodes currently marked unavailable (sorted)."""
        return tuple(sorted(self._down))

    def fail_node(self, node_name: str) -> int:
        """Disk loss: drop every replica held by *node_name* and mark it down.

        Returns the number of replicas lost.  The node stays out of
        read paths and placement decisions until :meth:`restore_node`
        (modelling a replacement machine joining with an empty disk).
        """
        node = self.cluster.node(node_name)
        lost = 0
        for dfs_file in self._files.values():
            for block in dfs_file.blocks:
                allocation = block.replicas.pop(node_name, None)
                if allocation is not None:
                    node.disk.free(allocation)
                    lost += 1
        self._down.add(node_name)
        return lost

    def mark_down(self, node_name: str) -> int:
        """Process crash: the node's replicas survive but cannot serve.

        Unlike :meth:`fail_node` the disk contents are retained — a
        restarted process (:meth:`restore_node`) brings them straight
        back, which is the fail-stop model the sharded executor's
        ``node.crash-mid-query`` site uses.  Returns the number of
        replicas made unavailable.
        """
        self.cluster.node(node_name)  # validate the name
        self._down.add(node_name)
        return sum(
            1
            for dfs_file in self._files.values()
            for block in dfs_file.blocks
            if node_name in block.replicas
        )

    def restore_node(self, node_name: str) -> None:
        """Bring a down node back into read and placement rotation.

        After :meth:`mark_down` its retained replicas become readable
        again; after :meth:`fail_node` it rejoins empty and
        :meth:`re_replicate` may place new replicas on it.  Restoring
        an already-up node is a no-op; unknown names are an error.
        """
        self.cluster.node(node_name)  # validate the name
        self._down.discard(node_name)

    def inject_node_crash(
        self,
        counters: PerfCounters | None = None,
        exclude: Sequence[str] = (),
    ) -> str | None:
        """Maybe crash one node (injector-driven) and repair the store.

        Routes the ``cluster.node-crash`` fault site through the shared
        injector: when it fires, a deterministic victim outside
        *exclude* (typically the coordinator) loses every replica it
        holds, and the store immediately re-replicates — ES2's
        survey-highlighted recovery mechanism — charging one network
        transfer per repaired replica.  Returns the victim's name, or
        ``None`` when no fault fired (or no victim was eligible).
        """
        if self.injector is None:
            return None
        candidates = [
            node.name for node in self.cluster.nodes if node.name not in exclude
        ]
        if not candidates or not self.injector.fires(SITE_NODE_CRASH, counters):
            return None
        victim = self.injector.choice(candidates)
        self.fail_node(victim)
        try:
            self.re_replicate(counters)
        except DistributedError as error:
            # The crash was injected; mark the failed repair so the
            # caller's accounting attributes it correctly.
            error.injected = True
            raise
        # The victim rejoins with an empty disk (replacement machine),
        # keeping it eligible for later crashes and placements.
        self.restore_node(victim)
        self.injector.report.record_recovered()
        if counters is not None:
            counters.fault_recoveries += 1
        return victim

    def re_replicate(
        self,
        counters: PerfCounters | None = None,
        crash_site: str | None = None,
    ) -> int:
        """Restore the replication target for every under-replicated block.

        Each repaired replica costs one network transfer of the block
        and is sourced from a surviving available replica — a block
        with **zero** available replicas is lost and raises
        :class:`~repro.errors.DistributedError` (replication's honest
        limit).  New replicas land only on up nodes; when too few are
        up to meet the target the repair also raises.

        Blocks are walked once, in stable file order, each repaired up
        to the target before moving on: a repair touches only its own
        block, so the blocks behind the cursor stay at target.  The
        loop is convergent under cascading failures: pass *crash_site*
        (e.g. ``cluster.node-crash``) to check the shared injector
        after every repaired replica — a firing kills one more up node
        mid-repair (disk loss) and the walk restarts from the first
        block, so blocks un-repaired by the second failure are
        revisited.  Each absorbed mid-repair crash is recorded as
        *recovered* once the store converges.  Returns the number of
        replicas created.
        """
        created = 0
        absorbed_crashes = 0
        blocks = [
            (path, block)
            for path, dfs_file in self._files.items()
            for block in dfs_file.blocks
        ]
        cursor = 0
        while cursor < len(blocks):
            path, block = blocks[cursor]
            if len(self._up_replicas(block)) >= self.replication:
                cursor += 1
                continue
            if not self._up_replicas(block):
                raise DistributedError(
                    f"block {path!r}#{block.index} lost: no surviving "
                    "replica to re-replicate from"
                )
            candidates = [
                node
                for node in self.cluster.nodes
                if node.name not in block.replicas and node.name not in self._down
            ]
            if not candidates:
                raise DistributedError(
                    f"not enough nodes to re-replicate {path!r}#{block.index}"
                )
            node = candidates[0]
            block.replicas[node.name] = node.disk.allocate(
                block.size, f"dfs:{path}#{block.index}"
            )
            self.cluster.network.transfer_cost(block.size, counters)
            created += 1
            if (
                crash_site is not None
                and self.injector is not None
                and self.injector.fires(crash_site, counters)
            ):
                victims = [
                    candidate.name
                    for candidate in self.cluster.nodes
                    if candidate.name not in self._down
                ]
                if victims:
                    self.fail_node(self.injector.choice(victims))
                    absorbed_crashes += 1
                    cursor = 0
        if absorbed_crashes and self.injector is not None:
            self.injector.report.record_recovered(absorbed_crashes)
            if counters is not None:
                counters.fault_recoveries += absorbed_crashes
        return created

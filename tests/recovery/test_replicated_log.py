"""ReplicatedLog tests: segment shipping, lag-by-one, node-loss survival."""

import ast

import pytest

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.errors import DistributedError, EngineCrashed
from repro.execution import ExecutionContext
from repro.faults import SITE_DFS_READ, SITE_WAL_TORN_WRITE, FaultInjector
from repro.hardware.event import PerfCounters
from repro.recovery.replicated import ReplicatedLog
from repro.recovery.wal import LogRecordKind, WriteAheadLog


@pytest.fixture
def dfs():
    return BlockStore(Cluster(node_count=4), replication=3)


def replicated_wal(platform, dfs, group_commit=2):
    replicated = ReplicatedLog(dfs, name="item")
    wal = WriteAheadLog(
        platform, group_commit=group_commit, replicator=replicated.on_flush
    )
    return wal, replicated


def commit_txns(wal, ctx, count, start=0):
    for txn in range(start, start + count):
        wal.log_begin(txn, ctx)
        wal.log_commit(txn, ctx)


class TestShipping:
    def test_every_flush_ships_one_segment(self, platform, ctx, dfs):
        wal, replicated = replicated_wal(platform, dfs, group_commit=2)
        commit_txns(wal, ctx, 6)  # 3 group flushes
        assert wal.flush_count == 3
        assert replicated.segments == 3
        assert replicated.shipped_bytes > 0
        assert sorted(dfs.paths()) == [
            "wal/item/00000000",
            "wal/item/00000001",
            "wal/item/00000002",
        ]

    def test_segments_are_replicated_at_store_factor(self, platform, ctx, dfs):
        wal, _ = replicated_wal(platform, dfs)
        commit_txns(wal, ctx, 2)
        for block in dfs.file("wal/item/00000000").blocks:
            assert len(block.replicas) == 3

    def test_read_back_verifies_shipped_bytes(self, platform, ctx, dfs):
        wal, replicated = replicated_wal(platform, dfs)
        commit_txns(wal, ctx, 4)
        payloads = replicated.read_back(dfs.cluster.nodes[0])
        assert len(payloads) == replicated.segments
        assert all(payloads)


class TestTornFlush:
    def test_replica_lags_by_at_most_the_torn_segment(self, platform, ctx, dfs):
        """A torn flush dies mid-fsync, before shipping: the replicated
        copy lags the local durable log by exactly that one segment."""
        wal, replicated = replicated_wal(platform, dfs, group_commit=2)
        commit_txns(wal, ctx, 2)  # segment 0 ships cleanly
        FaultInjector(seed=1).arm(
            SITE_WAL_TORN_WRITE, 1.0, max_faults=1
        ).install(platform)
        with pytest.raises(EngineCrashed):
            commit_txns(wal, ctx, 2, start=2)
        assert wal.flush_count == 2  # the torn batch did hit the platter
        assert replicated.segments == 1  # ...but never shipped
        # What did ship is still intact and verifiable.
        replicated.read_back(dfs.cluster.nodes[0])


class TestNodeLoss:
    def test_survives_fail_node_and_re_replicate(self, platform, ctx, dfs):
        wal, replicated = replicated_wal(platform, dfs)
        commit_txns(wal, ctx, 6)
        lost = dfs.fail_node("node1")
        assert lost > 0
        assert dfs.under_replicated()
        created = dfs.re_replicate()
        assert created == lost
        assert not dfs.under_replicated()
        # The re-replicated stream still verifies byte for byte, even
        # read from the node that just lost everything.
        replicated.read_back(dfs.cluster.node("node1"))


class TestES2Wiring:
    def test_make_replicated_wal_ships_into_engine_dfs(self, platform, ctx):
        from repro.engines.es2 import ES2Engine

        engine = ES2Engine(platform, partition_rows=128)
        wal, replicated = engine.make_replicated_wal("item", group_commit=2)
        assert replicated.dfs is engine.dfs
        commit_txns(wal, ctx, 2)
        assert replicated.segments == 1
        assert "wal/item/00000000" in engine.dfs.paths()
        replicated.read_back(engine.coordinator)


def mixed_txns(wal, ctx, count, start=0):
    """Updates, commits, aborts and reorg labels that need escaping."""
    for txn in range(start, start + count):
        wal.log_begin(txn, ctx)
        wal.log_update(txn, "item", "price", txn, txn * 0.5, txn / 3, ctx)
        if txn % 4 == 3:
            wal.log_abort(txn, ctx)
            wal.log_reorg(LogRecordKind.REORG_BEGIN, f"it's\n{txn}", ctx)
        else:
            wal.log_commit(txn, ctx)


def decode_reference(payloads):
    """The parse replay used to do: one ``repr`` tuple per line."""
    return [
        ast.literal_eval(line.decode())
        for payload in payloads
        for line in payload.split(b"\n")
        if line
    ]


def as_tuple(record):
    return (
        record.lsn,
        record.kind.value,
        record.txn_id,
        record.relation,
        record.attribute,
        record.position,
        record.before,
        record.after,
        record.payload,
    )


def assert_records_match_bytes(replicated, reader):
    records = replicated.read_records(reader)
    decoded = decode_reference(replicated.read_back(reader))
    assert [as_tuple(record) for record in records] == decoded
    return records


class TestReadRecords:
    @pytest.mark.parametrize("group_commit", [1, 3])
    def test_equals_decoded_bytes(self, platform, ctx, dfs, group_commit):
        wal, replicated = replicated_wal(platform, dfs, group_commit=group_commit)
        mixed_txns(wal, ctx, 13)
        wal.flush(ctx)
        records = assert_records_match_bytes(replicated, dfs.cluster.nodes[1])
        assert replicated.segments > 1
        # Nothing torn: the shipped stream is the whole durable prefix,
        # handed back as the very objects the WAL holds.
        assert records == list(wal.durable_records())
        assert all(
            shipped is durable
            for shipped, durable in zip(records, wal.durable_records())
        )

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_equals_decoded_bytes_after_torn_flush(self, platform, ctx, dfs, seed):
        wal, replicated = replicated_wal(platform, dfs, group_commit=2)
        FaultInjector(seed=seed).arm(
            SITE_WAL_TORN_WRITE, 0.2, max_faults=1
        ).install(platform)
        with pytest.raises(EngineCrashed):
            mixed_txns(wal, ctx, 200)
        records = assert_records_match_bytes(replicated, dfs.cluster.nodes[0])
        # The torn batch never shipped: the replica lags by that segment.
        assert wal.flush_count == replicated.segments + 1 > 1
        assert records == list(wal.durable_records()[: len(records)])

    def test_equals_decoded_bytes_after_node_loss(self, platform, ctx, dfs):
        wal, replicated = replicated_wal(platform, dfs, group_commit=2)
        mixed_txns(wal, ctx, 10)
        dfs.fail_node("node1")
        assert dfs.re_replicate() > 0
        assert_records_match_bytes(replicated, dfs.cluster.node("node1"))

    def test_charges_and_draws_exactly_like_read_back(self, platform, ctx):
        observed = []
        for method in ("read_back", "read_records"):
            injector = FaultInjector(seed=2).arm(SITE_DFS_READ, 0.5)
            store = BlockStore(Cluster(node_count=4), replication=2, injector=injector)
            wal, replicated = replicated_wal(platform, store, group_commit=2)
            mixed_txns(wal, ctx, 12)
            counters = PerfCounters()
            getattr(replicated, method)(store.cluster.nodes[3], counters)
            observed.append((counters, injector.report))
        assert observed[0] == observed[1]
        assert observed[0][1].recovered > 0

    def test_corrupt_segment_raises(self, platform, ctx, dfs):
        wal, replicated = replicated_wal(platform, dfs, group_commit=2)
        mixed_txns(wal, ctx, 6)
        block = dfs.file("wal/item/00000001").blocks[0]
        block.payload = block.payload.replace(b"price", b"PRICE")
        with pytest.raises(DistributedError, match="segment 1 corrupt"):
            replicated.read_records(dfs.cluster.nodes[0])

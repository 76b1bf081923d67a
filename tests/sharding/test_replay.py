"""Committed-prefix replay: both durable sources, commit and LSN filters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.hardware.event import PerfCounters
from repro.recovery import LogRecordKind, ReplicatedLog, WriteAheadLog
from repro.sharding.replay import load_entries, replay_updates


@pytest.fixture
def logged(platform, ctx):
    """Txns 1 and 3 commit, txn 2 aborts, txn 4 is still in the tail."""
    dfs = BlockStore(Cluster(node_count=3), replication=2)
    replicated = ReplicatedLog(dfs, name="item")
    wal = WriteAheadLog(platform, group_commit=1, replicator=replicated.on_flush)
    for txn, position, value in ((1, 4, 40.0), (2, 5, 50.0), (3, 6, 60.0)):
        wal.log_begin(txn, ctx)
        wal.log_update(txn, "item", "v", position, 0.0, value, ctx)
        wal.log_update(txn, "other", "v", position, 0.0, -1.0, ctx)
        if txn == 2:
            wal.log_abort(txn, ctx)
        else:
            wal.log_commit(txn, ctx)
    wal.log_begin(4, ctx)
    return wal, replicated, dfs


def test_both_sources_force_the_tail_and_agree(logged, ctx):
    wal, replicated, dfs = logged
    shipped = load_entries(wal, replicated, dfs.cluster.nodes[2], PerfCounters(), ctx)
    local = load_entries(wal, None, dfs.cluster.nodes[0], PerfCounters(), ctx)
    assert wal.tail_records == 0
    assert list(shipped) == list(local) == list(wal.durable_records())
    assert local[-1].txn_id == 4


def test_replay_applies_committed_updates_of_owned_rows(logged, ctx):
    wal, replicated, dfs = logged
    entries = load_entries(wal, replicated, dfs.cluster.nodes[0], PerfCounters(), ctx)
    positions = np.array([4, 5, 6])
    columns = {"v": np.zeros(3)}
    applied, txns = replay_updates(entries, "item", positions, columns)
    assert (applied, txns) == (2, {1, 3})
    assert columns["v"].tolist() == [40.0, 0.0, 60.0]


def test_replay_skips_records_at_or_below_min_lsn(logged, ctx):
    wal, _, dfs = logged
    entries = load_entries(wal, None, dfs.cluster.nodes[0], PerfCounters(), ctx)
    txn1_update = next(
        record.lsn
        for record in entries
        if record.txn_id == 1 and record.kind is LogRecordKind.UPDATE
    )
    columns = {"v": np.zeros(2)}
    applied, txns = replay_updates(
        entries, "item", np.array([4, 6]), columns, min_lsn=txn1_update
    )
    assert (applied, txns) == (1, {3})
    assert columns["v"].tolist() == [0.0, 60.0]

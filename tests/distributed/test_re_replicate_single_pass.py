"""The single-pass ``re_replicate`` against the restart-scan loop it replaced.

The old repair loop rescanned every block of every file after each
repaired replica.  The walk is now one pass in stable file order,
restarted only after an absorbed mid-repair crash.  Under seeded churn
— writes while nodes are down, disk losses, process crashes, restores,
with and without a ``crash_site`` armed — both must leave the same
replica placements, create the same number of replicas, raise the same
errors and tally the same faults.
"""

from __future__ import annotations

import random

import pytest

from repro.distributed.cluster import Cluster
from repro.distributed.dfs import BlockStore
from repro.errors import DistributedError
from repro.faults.injector import SITE_NODE_CRASH, FaultInjector
from repro.hardware.event import PerfCounters

NODE_COUNT = 6
REPLICATION = 3


def restart_scan_re_replicate(store, counters=None, crash_site=None):
    """Reference: repair one replica, then rescan from the first file."""
    created = 0
    absorbed_crashes = 0
    while True:
        problem = next(
            (
                (path, block)
                for path, dfs_file in store._files.items()
                for block in dfs_file.blocks
                if len(store._up_replicas(block)) < store.replication
            ),
            None,
        )
        if problem is None:
            break
        path, block = problem
        if not store._up_replicas(block):
            raise DistributedError(
                f"block {path!r}#{block.index} lost: no surviving "
                "replica to re-replicate from"
            )
        candidates = [
            node
            for node in store.cluster.nodes
            if node.name not in block.replicas and node.name not in store._down
        ]
        if not candidates:
            raise DistributedError(
                f"not enough nodes to re-replicate {path!r}#{block.index}"
            )
        node = candidates[0]
        block.replicas[node.name] = node.disk.allocate(
            block.size, f"dfs:{path}#{block.index}"
        )
        store.cluster.network.transfer_cost(block.size, counters)
        created += 1
        if (
            crash_site is not None
            and store.injector is not None
            and store.injector.fires(crash_site, counters)
        ):
            victims = [
                candidate.name
                for candidate in store.cluster.nodes
                if candidate.name not in store._down
            ]
            if victims:
                store.fail_node(store.injector.choice(victims))
                absorbed_crashes += 1
    if absorbed_crashes and store.injector is not None:
        store.injector.report.record_recovered(absorbed_crashes)
        if counters is not None:
            counters.fault_recoveries += absorbed_crashes
    return created


def churn_script(seed, steps=40):
    rng = random.Random(seed)
    script = []
    for step in range(steps):
        action = rng.choice(["write", "write", "fail", "down", "restore", "repair"])
        if action == "write":
            script.append(("write", f"f{step}", rng.randrange(1, 400)))
        elif action == "repair":
            script.append(("repair",))
        else:
            script.append((action, rng.randrange(NODE_COUNT)))
    return script + [("restore", index) for index in range(NODE_COUNT)] + [("repair",)]


def snapshot(store):
    return (
        {
            path: [tuple(block.replicas) for block in store.file(path).blocks]
            for path in store.paths()
        },
        store.down_nodes,
        [node.disk.used for node in store.cluster.nodes],
    )


def run(seed, crash_site, repair):
    """Apply the seeded script; returns every repair's outcome and the end state."""
    injector = FaultInjector(seed=seed)
    if crash_site is not None:
        injector.arm(crash_site, 0.15)
    store = BlockStore(
        Cluster(NODE_COUNT), replication=REPLICATION, block_size=64, injector=injector
    )
    counters = PerfCounters()
    outcomes = []
    for step in churn_script(seed):
        name = store.cluster.nodes[step[1]].name if len(step) == 2 else None
        if step[0] == "write":
            store.write(step[1], bytes([len(step[1])]) * step[2])
        elif step[0] == "fail":
            store.fail_node(name)
        elif step[0] == "down":
            store.mark_down(name)
        elif step[0] == "restore":
            store.restore_node(name)
        else:
            try:
                outcomes.append(repair(store, counters, crash_site))
            except DistributedError as error:
                outcomes.append(str(error))
            outcomes.append(snapshot(store))
    return outcomes, counters, injector.report


@pytest.mark.parametrize("crash_site", [None, SITE_NODE_CRASH])
@pytest.mark.parametrize("seed", range(12))
def test_single_pass_matches_restart_scan(seed, crash_site):
    single = run(seed, crash_site, BlockStore.re_replicate)
    reference = run(seed, crash_site, restart_scan_re_replicate)
    assert single == reference


def test_churn_exercises_repairs_errors_and_absorbed_crashes():
    """The scripts above are not vacuous: across the seeds, repairs
    create replicas, some fail, and mid-repair crashes are absorbed."""
    created = errors = absorbed = 0
    for seed in range(12):
        outcomes, _, report = run(seed, SITE_NODE_CRASH, BlockStore.re_replicate)
        created += sum(o for o in outcomes if isinstance(o, int))
        errors += sum(isinstance(o, str) for o in outcomes)
        absorbed += report.recovered
    assert created > 0 and errors > 0 and absorbed > 0

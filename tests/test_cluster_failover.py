"""End-to-end cluster failover: crash, partition, and recovery.

The chain under test: a replica's link goes dark -> probe timeouts pile up
-> the health monitor marks it down (hysteresis) -> the dispatcher drains
its sticky flows and forges RSTs -> the clients' retry stack re-issues the
requests -> rendezvous steering lands them on the survivors -> goodput
continues.  On restore the replica is probed back up and rejoins.
"""

import pytest

from repro.sim.clock import seconds_to_ticks

pytestmark = pytest.mark.cluster


def warmed_bed(replicas=3, clients=6, retry=True, adaptive=False):
    from repro.cluster.harness import ClusterTestbed

    bed = ClusterTestbed(replicas=replicas, adaptive=adaptive)
    bed.add_clients(clients, retry=retry)
    bed.boot()
    bed.sim.run(until=seconds_to_ticks(0.01))
    bed.start_load()
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.3))
    return bed


def run_for(bed, seconds):
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(seconds))


def test_crash_is_detected_drained_and_survived():
    bed = warmed_bed()
    victim = bed.replicas[0]
    crash_tick = bed.sim.now
    victim.crash()
    run_for(bed, 0.3)

    # Detection: the health monitor marked exactly the victim down, fast.
    down_at = bed.health.first_down_after(crash_tick, index=0)
    assert down_at is not None
    latency_s = (down_at - crash_tick) / seconds_to_ticks(1.0)
    assert latency_s < 0.05
    assert bed.health.healthy_indices() == [1, 2]

    # Drain: the victim's sticky flows were dropped and clients reset.
    assert bed.dispatcher.drained_conns > 0
    assert bed.dispatcher.rst_sent > 0
    assert all(idx != 0 for idx in bed.dispatcher.conn_map.values())

    # Survival: the retry stack re-issued and the survivors kept serving.
    assert sum(c.requests_retried for c in bed.clients) > 0
    after_crash = bed.stats.completions_in("client", down_at, bed.sim.now)
    assert after_crash > 0

    # Restore: a cold restart flushes the victim's stale connection state
    # and the health monitor probes it back up.
    restore_tick = bed.sim.now
    victim.restore()
    run_for(bed, 0.2)
    assert victim.link_up
    assert any(at >= restore_tick and idx == 0 and kind == "up"
               for at, idx, kind in bed.health.transitions)
    assert bed.health.healthy_indices() == [0, 1, 2]
    assert victim.crashes == 1 and victim.restores == 1


def test_partition_preserves_connection_state():
    bed = warmed_bed()
    victim = bed.replicas[0]
    victim.partition()
    run_for(bed, 0.2)
    assert bed.health.healthy_indices() == [1, 2]
    flows_before = len(victim.server.tcp.conn_table)
    victim.heal_partition()
    run_for(bed, 0.2)
    # Healing never flushes: whatever state the replica held survives.
    assert victim.flushed_paths == 0
    assert len(victim.server.tcp.conn_table) >= flows_before
    assert bed.health.healthy_indices() == [0, 1, 2]


def test_single_replica_crash_blackholes_until_restore():
    bed = warmed_bed(replicas=1, clients=4)
    served_before = bed.stats.total("client")
    assert served_before > 0
    bed.replicas[0].crash()
    run_for(bed, 0.1)
    outage_start = bed.sim.now
    run_for(bed, 0.4)
    # Nobody to fail over to: no completions during the outage, and the
    # dispatcher is explicitly dropping (not misrouting) new SYNs.
    assert bed.stats.completions_in("client", outage_start,
                                    bed.sim.now) == 0
    assert bed.dispatcher.drops_no_replica > 0
    bed.replicas[0].restore()
    run_for(bed, 0.3)
    assert bed.stats.completions_in("client", outage_start,
                                    bed.sim.now) > 0


def test_crash_failover_beats_no_retry_cluster():
    """The retry stack is what converts a drain into continuity."""
    goodputs = {}
    for retry in (True, False):
        bed = warmed_bed(retry=retry)
        bed.replicas[0].crash()
        start = bed.sim.now
        run_for(bed, 0.5)
        goodputs[retry] = bed.stats.completions_in("client", start,
                                                   bed.sim.now)
    # Both survive (the drain RSTs alone unblock serial clients), but the
    # retrying population completes strictly more during the failover.
    assert goodputs[True] > goodputs[False]

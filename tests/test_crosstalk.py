"""Crosstalk isolation: the Scout/Nemesis motivation.

"Recent multimedia operating systems like Scout and Nemesis begin to
address this problem by isolating data streams and minimizing cross talk
between streams" (paper section 1).  These tests verify the property the
whole QoS story rests on: concurrent reserved streams each hold their own
rate, and best-effort load cannot push either off target.
"""

import pytest

from repro.experiments.harness import QOS_IP, SERVER_IP, Testbed
from repro.policy import QosPolicy
from repro.workload.qos import QosReceiver


def test_two_streams_hold_their_rates_independently():
    policy = QosPolicy(1_000_000)
    bed = Testbed.escort(policies=[policy])
    bed.add_clients(32, document="/doc-1")

    first = bed.add_qos_receiver()
    # Its own stats object keeps its bytes apart from the first's.
    second = QosReceiver(bed.sim, "10.0.0.91", SERVER_IP, costs=bed.costs)
    bed._wire(second, bed.hub)

    bed.server.boot()
    result_holder = {}
    # Start the second receiver alongside the first.
    bed.sim.schedule(1, second.start)
    result = bed.run(warmup_s=2.0, measure_s=3.0)

    bw1 = result.qos_bandwidth_bps
    bw2 = second.achieved_bandwidth(result.window_start, result.window_end)
    assert bw1 == pytest.approx(1_000_000, rel=0.02)
    assert bw2 == pytest.approx(1_000_000, rel=0.02)
    # Best effort still runs in what's left.
    assert result.connections_per_second > 200


def test_streams_do_not_steal_from_each_other_under_attack():
    """A runaway CGI attack cannot push either stream off rate."""
    from repro.policy import RunawayPolicy
    policy = QosPolicy(1_000_000)
    bed = Testbed.escort(policies=[policy, RunawayPolicy(2.0)])
    bed.add_clients(16, document="/doc-1")
    bed.add_cgi_attackers(5)
    first = bed.add_qos_receiver()
    # Its own stats object keeps its bytes apart from the first's.
    second = QosReceiver(bed.sim, "10.0.0.92", SERVER_IP, costs=bed.costs)
    bed._wire(second, bed.hub)
    bed.sim.schedule(1, second.start)
    result = bed.run(warmup_s=2.0, measure_s=3.0)

    bw1 = result.qos_bandwidth_bps
    bw2 = second.achieved_bandwidth(result.window_start, result.window_end)
    assert bw1 == pytest.approx(1_000_000, rel=0.02)
    assert bw2 == pytest.approx(1_000_000, rel=0.02)
    assert result.runaway_kills > 0  # the attack really happened

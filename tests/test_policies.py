"""Unit tests for the three DoS policies."""

from unittest import mock

import pytest

from repro.sim.clock import SERVER_CYCLE_HZ, seconds_to_ticks
from repro.experiments.harness import (TRUSTED_SUBNET,
                                       UNTRUSTED_SUBNET, Testbed)
from repro.net.addressing import Subnet
from repro.policy import Policy, QosPolicy, RunawayPolicy, SynFloodPolicy


# ----------------------------------------------------------------------
# SynFloodPolicy
# ----------------------------------------------------------------------
def test_synflood_creates_two_passive_paths():
    policy = SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=32)
    bed = Testbed.escort(policies=[policy])
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.05))
    paths = bed.server.http.passive_paths
    assert len(paths) == 2
    trusted, untrusted = paths
    assert "trusted" in trusted.name
    assert untrusted.policy_state["syn_cap"] == 32
    assert "syn_cap" not in trusted.policy_state or \
        trusted.policy_state.get("syn_cap") is None


def test_synflood_listener_prefers_trusted_match():
    policy = SynFloodPolicy(TRUSTED_SUBNET)
    bed = Testbed.escort(policies=[policy])
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.05))
    listener = bed.server.tcp.listeners[80]
    trusted, untrusted = bed.server.http.passive_paths
    assert listener.select("10.1.0.7") is trusted
    assert listener.select("9.9.9.9") is untrusted


def test_synflood_validation():
    with pytest.raises(ValueError):
        SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=0)


def test_synflood_describe_mentions_subnet():
    policy = SynFloodPolicy(Subnet("10.5.0.0/16"), untrusted_cap=8)
    assert "10.5.0.0/16" in policy.describe()
    assert "8" in policy.describe()


def test_synflood_cap_enforced_end_to_end():
    policy = SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=4)
    bed = Testbed.escort(policies=[policy])
    bed.add_syn_attacker(rate_per_second=500)
    bed.run(warmup_s=1.0, measure_s=1.0)
    _, untrusted = bed.server.http.passive_paths
    assert untrusted.policy_state["syn_recvd"] <= 4
    assert bed.server.tcp.demux_drops.get("syn-cap", 0) > 100


# ----------------------------------------------------------------------
# RunawayPolicy
# ----------------------------------------------------------------------
def test_runaway_limit_cycles():
    assert RunawayPolicy(2.0).limit_cycles == 600_000  # 2 ms at 300 MHz
    assert RunawayPolicy(1.0).limit_cycles == 300_000


def test_runaway_validation():
    with pytest.raises(ValueError):
        RunawayPolicy(0)


def test_runaway_applies_limit_to_new_paths():
    policy = RunawayPolicy(2.0)
    bed = Testbed.escort(policies=[policy])
    bed.add_clients(1, document="/doc-1")
    bed.run(warmup_s=0.3, measure_s=0.3)
    paths = [p for p in bed.server.tcp.conn_table.values()]
    assert bed.server.tcp.active_path_runtime_limit == 600_000


def test_runaway_kills_and_reports():
    policy = RunawayPolicy(2.0)
    bed = Testbed.escort(policies=[policy])
    bed.add_cgi_attackers(1)
    bed.run(warmup_s=0.2, measure_s=2.5)
    assert bed.server.kernel.runaway_traps >= 1
    reports = bed.server.kernel.kill_reports
    assert reports
    assert all(r.cycles > 0 for r in reports)


def test_runaway_does_not_kill_legitimate_work():
    policy = RunawayPolicy(2.0)
    bed = Testbed.escort(policies=[policy])
    bed.add_clients(4, document="/doc-10k")
    result = bed.run(warmup_s=0.3, measure_s=1.0)
    assert result.client_completions > 0
    assert bed.server.kernel.runaway_traps == 0


# ----------------------------------------------------------------------
# QosPolicy
# ----------------------------------------------------------------------
def test_qos_share_and_tickets_math():
    policy = QosPolicy(bandwidth_bps=1_000_000)
    with mock.patch.object(QosPolicy, "CYCLES_PER_BYTE", 30.0), \
            mock.patch.object(QosPolicy, "MAX_COMPETING_OWNERS", 70):
        share = policy.required_share(False)
        tickets = policy.tickets(False)
    assert share == pytest.approx(30e6 / SERVER_CYCLE_HZ)
    assert tickets / (tickets + 70) >= share


def test_qos_pd_needs_more_tickets():
    policy = QosPolicy(1_000_000)
    assert policy.tickets(True) > policy.tickets(False)


def test_qos_validation():
    with pytest.raises(ValueError):
        QosPolicy(bandwidth_bps=0)


def test_qos_apply_sets_stream_knobs():
    policy = QosPolicy(2_000_000)
    bed = Testbed.escort(policies=[policy])
    assert bed.server.http.stream_rate_bps == 2_000_000
    assert bed.server.http.stream_tickets == policy.tickets(False)


def test_base_policy_is_noop():
    policy = Policy()
    assert policy.listen_specs() is None
    assert policy.describe() == "Policy"


# ----------------------------------------------------------------------
# MisbehaverPolicy (paper section 4.4.4)
# ----------------------------------------------------------------------
def test_misbehaver_penalty_path_created():
    from repro.policy import MisbehaverPolicy
    policy = MisbehaverPolicy(penalty_cap=2)
    bed = Testbed.escort(policies=[policy])
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.05))
    listener = bed.server.tcp.listeners[80]
    assert listener.penalty_path is not None
    assert listener.penalty_path.policy_state["syn_cap"] == 2
    # The default (non-penalty) passive path still serves everyone else.
    assert listener.select("10.1.0.1") is not listener.penalty_path


def test_misbehaver_recorded_after_runaway_kill():
    from repro.policy import MisbehaverPolicy, RunawayPolicy
    misbehaver = MisbehaverPolicy()
    bed = Testbed.escort(policies=[RunawayPolicy(2.0), misbehaver])
    attackers = bed.add_cgi_attackers(1)
    bed.run(warmup_s=0.3, measure_s=2.0)
    assert misbehaver.offenses_recorded >= 1
    assert attackers[0].ip in misbehaver.offenders
    # Future SYNs from the offender demux to the penalty path.
    listener = bed.server.tcp.listeners[80]
    assert listener.select(attackers[0].ip) is listener.penalty_path
    # Innocent clients are unaffected.
    assert listener.select("10.1.0.250") is not listener.penalty_path


def test_misbehaver_validation():
    from repro.policy import MisbehaverPolicy
    with pytest.raises(ValueError):
        MisbehaverPolicy(penalty_cap=0)


def test_misbehaver_caps_offender_connections():
    """An offender's half-open connections pin at the tiny penalty cap."""
    from repro.policy import MisbehaverPolicy
    policy = MisbehaverPolicy(penalty_cap=1)
    bed = Testbed.escort(policies=[policy])
    policy.record_offender("10.9.0.1")  # pre-convicted
    bed.add_syn_attacker(rate_per_second=200)
    # The attacker spoofs many IPs; convict them all as they appear by
    # marking the whole untrusted space.
    for ip in UNTRUSTED_SUBNET.hosts(200):
        policy.record_offender(ip)
    bed.run(warmup_s=0.5, measure_s=1.0)
    listener = bed.server.tcp.listeners[80]
    assert listener.penalty_path.policy_state["syn_recvd"] <= 1
    assert bed.server.tcp.demux_drops.get("syn-cap", 0) > 50

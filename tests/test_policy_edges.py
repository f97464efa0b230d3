"""Edge-case coverage for the static policy layer: SynFloodPolicy under
zero traffic and pure-attack traffic, and ResourceQuota boundary values
(sitting exactly at a limit is compliant; one past it is not)."""

import pytest

from repro.experiments.harness import TRUSTED_SUBNET, Testbed
from repro.kernel.owner import Owner, OwnerType
from repro.kernel.quota import ResourceQuota
from repro.net.addressing import Subnet
from repro.policy import SynFloodPolicy
from repro.sim.clock import seconds_to_ticks


def make_owner(name="o"):
    return Owner(OwnerType.PATH, name=name)


# ----------------------------------------------------------------------
# SynFloodPolicy: zero traffic
# ----------------------------------------------------------------------
def test_dropped_syns_is_zero_with_no_traffic():
    policy = SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=4)
    bed = Testbed.escort(policies=[policy])
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.1))
    assert bed.server.tcp.demux_drops.get("syn-cap", 0) == 0
    trusted, untrusted = bed.server.http.passive_paths
    assert trusted.policy_state.get("syn_recvd", 0) == 0
    assert untrusted.policy_state.get("syn_recvd", 0) == 0


def test_dropped_syns_zero_under_legitimate_load_only():
    policy = SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=4)
    bed = Testbed.escort(policies=[policy])
    bed.add_clients(4, document="/doc-1k")
    bed.run(warmup_s=0.2, measure_s=0.3)
    # Trusted clients never touch the untrusted cap.
    assert bed.server.tcp.demux_drops.get("syn-cap", 0) == 0
    assert bed.stats.total("client") > 0


# ----------------------------------------------------------------------
# SynFloodPolicy: all-attack traffic
# ----------------------------------------------------------------------
def test_all_attack_traffic_drops_everything_past_the_cap():
    policy = SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=2)
    bed = Testbed.escort(policies=[policy])
    bed.add_syn_attacker(rate_per_second=800)  # untrusted, never ACKs
    bed.run(warmup_s=0.5, measure_s=0.5)
    _, untrusted = bed.server.http.passive_paths
    assert untrusted.policy_state["syn_recvd"] <= 2
    dropped = bed.server.tcp.demux_drops["syn-cap"]
    sent = bed.syn_attacker.sent
    # With a cap of 2 and no handshake completions, nearly the whole
    # flood dies at demux.
    assert dropped > 0.9 * (sent - 10)


def test_describe_mentions_subnet_and_cap_edges():
    policy = SynFloodPolicy(Subnet("10.77.0.0/16"), untrusted_cap=1)
    text = policy.describe()
    assert "10.77.0.0/16" in text
    assert "untrusted_cap=1" in text
    # trusted_cap=None (uncapped) must not render as a bogus number.
    assert "None" not in text or "trusted_cap" not in text


def test_minimum_viable_cap_still_boots():
    policy = SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=1)
    bed = Testbed.escort(policies=[policy])
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.05))
    assert len(bed.server.http.passive_paths) == 2


# ----------------------------------------------------------------------
# ResourceQuota boundary values
# ----------------------------------------------------------------------
@pytest.mark.parametrize("resource,limit", [
    ("pages", "max_pages"),
    ("kmem", "max_kmem"),
    ("heap_bytes", "max_heap_bytes"),
    ("events", "max_events"),
    ("semaphores", "max_semaphores"),
])
def test_exactly_at_limit_is_not_a_violation(resource, limit):
    quota = ResourceQuota(**{limit: 10})
    owner = make_owner()
    setattr(owner.usage, resource, 10)
    assert quota.violation(owner) is None
    setattr(owner.usage, resource, 11)
    assert quota.violation(owner) is not None


def test_zero_limit_allows_zero_usage():
    quota = ResourceQuota(max_pages=0)
    owner = make_owner()
    assert quota.violation(owner) is None
    owner.usage.pages = 1
    assert "pages" in quota.violation(owner)


def test_violation_reports_first_breached_limit_only():
    quota = ResourceQuota(max_pages=1, max_events=1)
    owner = make_owner()
    owner.usage.pages = 5
    owner.usage.events = 5
    # Declaration order: pages is checked (and reported) first.
    assert "pages" in quota.violation(owner)
    owner.usage.pages = 1
    assert "events" in quota.violation(owner)

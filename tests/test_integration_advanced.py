"""Advanced integration tests: domain destruction, drivers."""

import pytest

from repro.sim.clock import seconds_to_ticks
from repro.experiments.harness import Testbed
from repro.net.packet import (
    ETHERTYPE_IP,
    EthFrame,
    FLAG_SYN,
    IPDatagram,
    IPPROTO_TCP,
    TCPSegment,
)


# ----------------------------------------------------------------------
# Destroying a protection domain destroys the paths crossing it
# ----------------------------------------------------------------------
def test_destroying_ip_domain_kills_all_connection_paths():
    """Section 2.3: paths can access module state, so a dying domain takes
    its paths with it — e.g. IP's routing table disappearing."""
    bed = Testbed.escort(protection_domains=True)
    bed.add_clients(4, document="/doc-1k")
    bed.run(warmup_s=0.3, measure_s=0.3)
    server = bed.server
    live_before = [p for p in server.tcp.conn_table.values()
                   if not p.destroyed]
    passive = server.http.passive_paths[0]
    reports = server.kernel.destroy_domain(server.ip_mod.pd)
    assert server.ip_mod.pd.destroyed
    for path in live_before:
        assert path.destroyed
    assert passive.destroyed  # the passive path crosses IP too
    assert len(reports) >= len(live_before) + 1


def test_destroying_fs_domain_spares_passive_paths():
    """Passive paths stop at HTTP; they do not cross FS."""
    bed = Testbed.escort(protection_domains=True)
    bed.add_clients(2, document="/doc-1k")
    bed.run(warmup_s=0.3, measure_s=0.3)
    server = bed.server
    passive = server.http.passive_paths[0]
    server.kernel.destroy_domain(server.fs.pd)
    assert not passive.destroyed
    assert server.arp.arp_path is not None
    assert not server.arp.arp_path.destroyed


# ----------------------------------------------------------------------
# ETH driver behaviour
# ----------------------------------------------------------------------
def test_eth_charges_drops_to_the_driver_domain():
    bed = Testbed.escort(protection_domains=True)
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.05))
    server = bed.server
    before = server.eth.pd.usage.cycles
    # A segment for a port nobody listens on: dropped at demux.
    seg = TCPSegment(5000, 9999, 0, 0, FLAG_SYN)
    frame = EthFrame(None, server.nic.mac, ETHERTYPE_IP,
                     IPDatagram("10.1.0.1", server.ip, IPPROTO_TCP, seg))
    server.eth.on_frame(frame)
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.01))
    assert server.eth.drops.get("no-listener") == 1
    assert server.eth.pd.usage.cycles > before


def test_eth_queue_overflow_counted():
    bed = Testbed.escort()
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.05))
    server = bed.server
    passive = server.http.passive_paths[0]
    # Stall the passive path's worker so its queue fills.
    for t in list(passive.pool.threads):
        t.kill()
    capacity = passive.input_queue().capacity
    for i in range(capacity + 10):
        seg = TCPSegment(6000 + i, 80, 0, 0, FLAG_SYN)
        frame = EthFrame(None, server.nic.mac, ETHERTYPE_IP,
                         IPDatagram("10.1.0.9", server.ip, IPPROTO_TCP,
                                    seg))
        server.eth.on_frame(frame)
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.05))
    assert server.eth.queue_overflows >= 10


def test_unknown_ethertype_dropped():
    bed = Testbed.escort()
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.05))
    server = bed.server
    frame = EthFrame(None, server.nic.mac, 0x86DD, object())  # IPv6
    server.eth.on_frame(frame)
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.01))
    assert server.eth.drops.get("ethertype") == 1


# ----------------------------------------------------------------------
# Termination-domain style mapping restriction
# ----------------------------------------------------------------------
def test_iobuffer_mapping_respects_termination_subset():
    """A buffer mapped only up to a 'termination domain' stays unreadable
    beyond it (section 3.3's multi-security-level support)."""
    bed = Testbed.escort(protection_domains=True)
    bed.add_clients(1, document="/doc-1")
    bed.run(warmup_s=0.3, measure_s=0.3)
    server = bed.server
    kernel = server.kernel
    live = [p for p in server.tcp.conn_table.values() if not p.destroyed]
    if not live:
        pytest.skip("no live path at sample time")
    path = live[0]
    # Map a fresh buffer for the path only up to TCP (the termination
    # domain): HTTP and beyond must not be able to read it.
    net_side = [server.eth.pd, server.ip_mod.pd, server.tcp.pd]
    buf, _ = kernel.iobufs.alloc(100, path, server.eth.pd,
                                 read_pds=net_side)
    assert buf.readable_in(server.tcp.pd)
    assert not buf.readable_in(server.http.pd)
    assert not buf.readable_in(server.fs.pd)


# ----------------------------------------------------------------------
# Accounting disabled really is free
# ----------------------------------------------------------------------
def test_scout_and_accounting_differ_only_by_overhead():
    rates = {}
    for name in ("scout", "accounting"):
        bed = Testbed.by_name(name)
        bed.add_clients(16, document="/doc-1")
        rates[name] = bed.run(warmup_s=0.4,
                              measure_s=0.8).connections_per_second
    overhead = 1 - rates["accounting"] / rates["scout"]
    assert 0.0 <= overhead <= 0.15, rates

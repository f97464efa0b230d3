"""Unit tests for links, the hub, and the switch."""

import pytest

from repro.net.addressing import BROADCAST
from repro.net.link import (DEFAULT_LATENCY, Hub, Link, NIC, Switch,
                            serialization_ticks)
from repro.net.packet import ETH_HEADER, EthFrame, ETHERTYPE_IP


class Payload:
    def __init__(self, size):
        self.size = size


def make_frame(src, dst, size=100):
    return EthFrame(src.mac, dst.mac if isinstance(dst, NIC) else dst,
                    ETHERTYPE_IP, Payload(size))


def test_serialization_time_is_wire_size(sim):
    a, b = NIC(sim, "a"), NIC(sim, "b")
    frame = make_frame(a, b, size=1000)
    # (1000 + 18 header) bytes * 8 bits * 6 ticks/bit
    assert serialization_ticks(frame) == (1000 + ETH_HEADER) * 8 * 6


def test_minimum_frame_size(sim):
    a, b = NIC(sim, "a"), NIC(sim, "b")
    frame = make_frame(a, b, size=1)
    assert frame.wire_size == 64


def test_link_delivers_to_peer(sim):
    a, b = NIC(sim, "a"), NIC(sim, "b")
    link = Link(sim)
    link.attach(a)
    link.attach(b)
    got = []
    b.on_receive = got.append
    frame = make_frame(a, b)
    a.send(frame)
    sim.run()
    assert got == [frame]
    assert sim.now == serialization_ticks(frame) + DEFAULT_LATENCY
    assert a.tx_frames == 1
    assert b.rx_frames == 1


def test_link_serializes_back_to_back_frames(sim):
    a, b = NIC(sim, "a"), NIC(sim, "b")
    link = Link(sim)
    link.attach(a)
    link.attach(b)
    arrivals = []
    b.on_receive = lambda f: arrivals.append(sim.now)
    f1, f2 = make_frame(a, b), make_frame(a, b)
    a.send(f1)
    a.send(f2)
    sim.run()
    assert arrivals[1] - arrivals[0] == serialization_ticks(f2)


def test_link_rejects_third_nic(sim):
    link = Link(sim)
    link.attach(NIC(sim))
    link.attach(NIC(sim))
    with pytest.raises(RuntimeError):
        link.attach(NIC(sim))


def test_hub_delivers_only_to_addressee(sim):
    hub = Hub(sim, latency=0)
    a, b, c = NIC(sim, "a"), NIC(sim, "b"), NIC(sim, "c")
    for nic in (a, b, c):
        hub.attach(nic)
    got_b, got_c = [], []
    b.on_receive = got_b.append
    c.on_receive = got_c.append
    a.send(make_frame(a, b))
    sim.run()
    assert len(got_b) == 1
    assert got_c == []


def test_hub_broadcast_reaches_everyone_but_sender(sim):
    hub = Hub(sim, latency=0)
    nics = [NIC(sim, f"n{i}") for i in range(4)]
    for nic in nics:
        hub.attach(nic)
    counts = [0, 0, 0, 0]
    for i, nic in enumerate(nics):
        nic.on_receive = lambda f, i=i: counts.__setitem__(i, counts[i] + 1)
    nics[0].send(EthFrame(nics[0].mac, BROADCAST, ETHERTYPE_IP, Payload(50)))
    sim.run()
    assert counts == [0, 1, 1, 1]


def test_hub_is_shared_medium(sim):
    """Two senders' frames serialize over one shared segment."""
    hub = Hub(sim, latency=0)
    a, b, c = NIC(sim, "a"), NIC(sim, "b"), NIC(sim, "c")
    for nic in (a, b, c):
        hub.attach(nic)
    arrivals = []
    c.on_receive = lambda f: arrivals.append(sim.now)
    fa, fb = make_frame(a, c), make_frame(b, c)
    a.send(fa)
    b.send(fb)
    sim.run()
    assert arrivals[1] - arrivals[0] == serialization_ticks(fb)


def test_switch_learns_and_forwards(sim):
    switch = Switch(sim, latency=0)
    a, b = NIC(sim, "a"), NIC(sim, "b")
    switch.attach(a)
    switch.attach(b)
    got_a, got_b = [], []
    a.on_receive = got_a.append
    b.on_receive = got_b.append
    # First frame floods (b unknown), teaching the switch a's port.
    a.send(make_frame(a, b))
    sim.run()
    assert len(got_b) == 1
    # Reply: now unicast back to a's learned port.
    b.send(make_frame(b, a))
    sim.run()
    assert len(got_a) == 1
    assert switch.mac_table[a.mac] is not None


def test_switch_uplink_bridges_to_hub(sim):
    """The Figure 7 topology: client -> switch -> hub -> server."""
    hub = Hub(sim, latency=0)
    switch = Switch(sim, latency=0)
    server = NIC(sim, "server")
    hub.attach(server)
    switch.attach_uplink(hub)
    client = NIC(sim, "client")
    switch.attach(client)

    got_server, got_client = [], []
    server.on_receive = got_server.append
    client.on_receive = got_client.append

    client.send(make_frame(client, server))
    sim.run()
    assert len(got_server) == 1
    server.send(make_frame(server, client))
    sim.run()
    assert len(got_client) == 1


def test_unattached_nic_cannot_send(sim):
    nic = NIC(sim)
    with pytest.raises(RuntimeError):
        nic.send(EthFrame(nic.mac, BROADCAST, ETHERTYPE_IP, Payload(10)))

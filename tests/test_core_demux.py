"""Unit tests for the incremental demultiplexer."""

import pytest

from repro.sim.clock import seconds_to_ticks
from repro.core.demux import CONTINUE, DROP, TO_PATH, DemuxResult
from repro.modules.base import Module
from repro.modules.eth import EthModule
from repro.modules.graph import ModuleGraph
from repro.modules.ip import IpModule
from repro.net.packet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    EthFrame,
    FLAG_ACK,
    FLAG_SYN,
    IPDatagram,
    IPPROTO_TCP,
    TCPSegment,
)
from tests.test_core_lifecycle import create_path, make_server


def frame_for(server, seg, src_ip="10.1.0.1"):
    return EthFrame(None, server.nic.mac, ETHERTYPE_IP,
                    IPDatagram(src_ip, server.ip, IPPROTO_TCP, seg))


def test_syn_classifies_to_passive_path(sim):
    server = make_server(sim)
    syn = TCPSegment(5000, 80, 0, 0, FLAG_SYN)
    result = server.demultiplexer.classify(server.eth, frame_for(server, syn))
    assert result.kind == TO_PATH
    assert result.path is server.http.passive_paths[0]
    assert result.modules_consulted == 3  # eth -> ip -> tcp


def test_connection_segment_classifies_to_active_path(sim):
    server = make_server(sim)
    path = create_path(sim, server)  # binds (80, 10.1.0.1, 5000)
    ack = TCPSegment(5000, 80, 1, 1, FLAG_ACK)
    result = server.demultiplexer.classify(server.eth, frame_for(server, ack))
    assert result.kind == TO_PATH
    assert result.path is path


def test_non_syn_without_connection_drops(sim):
    server = make_server(sim)
    stray = TCPSegment(6000, 80, 10, 10, FLAG_ACK)
    result = server.demultiplexer.classify(server.eth,
                                           frame_for(server, stray))
    assert result.kind == DROP
    assert result.reason == "no-connection"


def test_wrong_destination_ip_drops(sim):
    server = make_server(sim)
    syn = TCPSegment(5000, 80, 0, 0, FLAG_SYN)
    frame = EthFrame(None, server.nic.mac, ETHERTYPE_IP,
                     IPDatagram("10.1.0.1", "10.0.0.99", IPPROTO_TCP, syn))
    result = server.demultiplexer.classify(server.eth, frame)
    assert result.kind == DROP
    assert result.reason == "ip-not-local"


def test_wrong_port_drops(sim):
    server = make_server(sim)
    syn = TCPSegment(5000, 23, 0, 0, FLAG_SYN)
    result = server.demultiplexer.classify(server.eth, frame_for(server, syn))
    assert result.kind == DROP
    assert result.reason == "no-listener"


def test_syn_cap_drops_at_demux(sim):
    server = make_server(sim)
    passive = server.http.passive_paths[0]
    passive.policy_state["syn_cap"] = 0   # nothing may be half-open
    syn = TCPSegment(5000, 80, 0, 0, FLAG_SYN)
    result = server.demultiplexer.classify(server.eth, frame_for(server, syn))
    assert result.kind == DROP
    assert result.reason == "syn-cap"


def test_demux_cost_includes_pd_penalty(sim):
    plain = make_server(sim)
    syn = TCPSegment(5000, 80, 0, 0, FLAG_SYN)
    r1 = plain.demultiplexer.classify(plain.eth, frame_for(plain, syn))
    cost_plain = r1.demux_cycles(plain.kernel)

    from repro.sim.engine import Simulator
    sim2 = Simulator()
    pd_server = make_server(sim2, pd=True)
    r2 = pd_server.demultiplexer.classify(pd_server.eth,
                                          frame_for(pd_server, syn))
    cost_pd = r2.demux_cycles(pd_server.kernel)
    assert cost_pd > cost_plain
    assert r2.domain_switches == 2  # eth->ip, ip->tcp


def test_dead_path_classification_drops(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    seg = TCPSegment(5000, 80, 1, 1, FLAG_ACK)
    server.path_manager.path_kill(path)
    # The conn binding is removed on kill, so this lands in no-connection.
    result = server.demultiplexer.classify(server.eth, frame_for(server, seg))
    assert result.kind == DROP


def test_demux_loop_bound(sim):
    server = make_server(sim)

    class Loopy:
        name = "loopy"
        pd = server.kernel.privileged_domain

        def demux(self, view):
            return DemuxResult.forward("loopy", view)

    loopy = Loopy()
    server.graph._modules["loopy"] = loopy  # test-only direct insertion
    server.graph._positions["loopy"] = 99
    result = server.demultiplexer.classify(loopy, object())
    assert result.kind == DROP
    assert result.reason == "demux-loop"
    assert result.modules_consulted == server.demultiplexer.max_hops


def test_a_demux_result_keeps_its_target_after_the_next_demux(sim):
    # Each demux call returns its own result, so a result the caller
    # holds does not change when the next packet is demuxed.
    server = make_server(sim)
    path = create_path(sim, server)  # binds (80, 10.1.0.1, 5000)
    passive = server.http.passive_paths[0]
    ack = IPDatagram("10.1.0.1", server.ip, IPPROTO_TCP,
                     TCPSegment(5000, 80, 1, 1, FLAG_ACK))
    syn = IPDatagram("10.1.0.2", server.ip, IPPROTO_TCP,
                     TCPSegment(6000, 80, 0, 0, FLAG_SYN))
    to_active = server.tcp.demux(ack)
    to_passive = server.tcp.demux(syn)
    assert (to_active.kind, to_active.path) == (TO_PATH, path)
    assert (to_passive.kind, to_passive.path) == (TO_PATH, passive)

    icmp = IPDatagram("10.1.0.1", server.ip, 1, None)
    to_tcp = server.ip_mod.demux(ack)
    to_icmp = server.ip_mod.demux(icmp)
    assert (to_tcp.next_module, to_tcp.view) == ("tcp", ack)
    assert (to_icmp.next_module, to_icmp.view) == ("icmp", icmp)

    arp = object()
    to_ip = server.eth.demux(EthFrame(None, server.nic.mac, ETHERTYPE_IP,
                                      ack))
    to_arp = server.eth.demux(EthFrame(None, server.nic.mac, ETHERTYPE_ARP,
                                       arp))
    assert (to_ip.kind, to_ip.next_module, to_ip.view) == (CONTINUE, "ip",
                                                           ack)
    assert (to_arp.next_module, to_arp.view) == ("arp", arp)


@pytest.mark.parametrize("ethertype,reason,added,then", [
    (0x86DD, "ethertype", "ip", ETHERTYPE_IP),
    (ETHERTYPE_IP, "no-ip", "ip", ETHERTYPE_IP),
    (ETHERTYPE_ARP, "no-arp", "arp", ETHERTYPE_ARP),
], ids=["ethertype", "no-ip", "no-arp"])
def test_eth_demux_sees_a_module_added_after_its_first_frame(
        kernel, ethertype, reason, added, then):
    pd = kernel.privileged_domain
    graph = ModuleGraph(kernel)
    eth = graph.add(EthModule(kernel, "eth", pd), 0)
    assert eth.demux(EthFrame(None, None, ethertype, None)).reason == reason
    graph.add(Module(kernel, added, pd), 1)
    result = eth.demux(EthFrame(None, None, then, None))
    assert (result.kind, result.next_module) == (CONTINUE, added)
    unknown = eth.demux(EthFrame(None, None, 0x86DD, None))
    assert (unknown.kind, unknown.reason) == (DROP, "ethertype")


@pytest.mark.parametrize("proto,added", [
    (IPPROTO_TCP, "tcp"), (1, "icmp"), (17, "udp"),
], ids=["tcp", "icmp", "udp"])
def test_ip_demux_sees_a_module_added_after_its_first_datagram(kernel,
                                                                proto,
                                                                added):
    pd = kernel.privileged_domain
    graph = ModuleGraph(kernel)
    ip = graph.add(IpModule(kernel, "ip", pd, local_ip="10.0.0.1"), 1)
    dgram = IPDatagram("10.1.0.1", "10.0.0.1", proto, None)
    first = ip.demux(dgram)
    assert (first.kind, first.reason) == (DROP, "ip-proto")
    graph.add(Module(kernel, added, pd), 2)
    result = ip.demux(dgram)
    assert (result.kind, result.next_module, result.view) == (CONTINUE,
                                                              added, dgram)

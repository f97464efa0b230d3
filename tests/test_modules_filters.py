"""Unit tests for filter modules (policy level 4)."""

import pytest

from repro.sim.engine import Simulator
from repro.modules.filters import FilterModule, PortFilter
from repro.net.packet import (
    FLAG_ACK,
    FLAG_SYN,
    IPDatagram,
    IPPROTO_TCP,
    TCPSegment,
)


@pytest.fixture
def port_filter(kernel):
    return PortFilter(kernel, "port80", kernel.privileged_domain,
                      allowed_ports={80})


def dgram(port, flags=FLAG_SYN):
    return IPDatagram("10.1.0.1", "10.0.0.80", IPPROTO_TCP,
                      TCPSegment(5000, port, 0, 0, flags))


def test_port_filter_permits_allowed_port(port_filter):
    assert port_filter.permit(dgram(80))


def test_port_filter_rejects_other_ports(port_filter):
    assert not port_filter.permit(dgram(23))
    assert not port_filter.permit(dgram(8080))


def test_port_filter_inspects_bare_segments(port_filter):
    assert port_filter.permit(TCPSegment(5000, 80, 0, 0, FLAG_SYN))
    assert not port_filter.permit(TCPSegment(5000, 443, 0, 0, FLAG_SYN))


def test_port_filter_outbound_checks_source_port(port_filter):
    ok = ("10.1.0.1", TCPSegment(80, 5000, 0, 0, FLAG_ACK))
    bad = ("10.1.0.1", TCPSegment(8080, 5000, 0, 0, FLAG_ACK))
    assert port_filter.permit_backward(ok)
    assert not port_filter.permit_backward(bad)


def test_port_filter_ignores_non_tcp(port_filter):
    assert port_filter.permit("not a packet")
    assert port_filter.permit_backward("not a packet")


def test_base_filter_is_transparent(kernel):
    f = FilterModule(kernel, "noop", kernel.privileged_domain)
    assert f.permit(object())
    assert f.permit_backward(object())


def test_filter_in_data_plane_drops_and_counts(sim):
    """End to end: a filter spliced between IP and TCP kills stray SYNs
    during demultiplexing."""
    from tests.test_core_lifecycle import make_server
    server = make_server(sim)
    pf = PortFilter(server.kernel, "port80",
                    server.kernel.privileged_domain, allowed_ports={80})
    server.graph.add(pf, position=15)
    server.graph.connect("ip", "port80")
    server.graph.connect("port80", "tcp")

    orig = server.ip_mod.demux

    def filtered(dgram):
        result = orig(dgram)
        if result.kind == "continue" and result.next_module == "tcp":
            result.next_module = "port80"
        return result

    server.ip_mod.demux = filtered

    from repro.core.demux import DROP, TO_PATH
    from repro.net.packet import ETHERTYPE_IP, EthFrame
    telnet = EthFrame(None, server.nic.mac, ETHERTYPE_IP, dgram(23))
    http = EthFrame(None, server.nic.mac, ETHERTYPE_IP, dgram(80))
    assert server.demultiplexer.classify(server.eth, telnet).kind == DROP
    assert pf.dropped_demux == 1
    assert server.demultiplexer.classify(server.eth, http).kind == TO_PATH

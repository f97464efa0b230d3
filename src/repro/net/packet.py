"""Packet formats.

Payload *contents* are simulated — a packet carries byte counts plus an
optional application object (an HTTP request, say) — but sizes, headers and
the information protocols actually switch on (addresses, ports, sequence
numbers, flags) are real, because the experiments depend on them: wire
sizes set serialization delay on the 100 Mbps Ethernet, the MSS drives the
10 KB document's congestion-control behaviour, and demux switches on the
header fields.
"""

from __future__ import annotations

from typing import Any

#: Ethernet header + CRC bytes on the wire.
ETH_HEADER = 18
#: Minimal IPv4 header.
IP_HEADER = 20
#: Minimal TCP header.
TCP_HEADER = 20
#: Ethernet payload MTU (the paper quotes 1460 as the usable TCP MSS).
ETH_MTU = 1500
#: TCP maximum segment size = MTU - IP - TCP headers.
TCP_MSS = ETH_MTU - IP_HEADER - TCP_HEADER

ETHERTYPE_IP = 0x0800
ETHERTYPE_ARP = 0x0806

IPPROTO_TCP = 6

FLAG_SYN = 0x1
FLAG_ACK = 0x2
FLAG_FIN = 0x4
FLAG_RST = 0x8


def flag_names(flags: int) -> str:
    """Human-readable TCP flag set, e.g. ``"SYN|ACK"``."""
    names = []
    if flags & FLAG_SYN:
        names.append("SYN")
    if flags & FLAG_ACK:
        names.append("ACK")
    if flags & FLAG_FIN:
        names.append("FIN")
    if flags & FLAG_RST:
        names.append("RST")
    return "|".join(names) or "-"


class TCPSegment:
    """A TCP segment: real header fields, simulated payload."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags",
                 "payload_len", "app_data", "size", "seq_span")

    def __init__(self, src_port: int, dst_port: int, seq: int, ack: int,
                 flags: int, payload_len: int = 0, app_data: Any = None):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload_len = payload_len
        self.app_data = app_data
        # Header fields never change after construction, so the derived
        # sizes are plain attributes, not properties — these are read on
        # every hop of every packet (serialization delay, copy costs).
        self.size = TCP_HEADER + payload_len
        #: Sequence-number space consumed (payload plus SYN/FIN).
        span = payload_len
        if flags & FLAG_SYN:
            span += 1
        if flags & FLAG_FIN:
            span += 1
        self.seq_span = span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TCP {self.src_port}->{self.dst_port} "
                f"{flag_names(self.flags)} seq={self.seq} ack={self.ack} "
                f"len={self.payload_len}>")


class IPDatagram:
    """An IPv4 datagram wrapping a transport payload."""

    __slots__ = ("src_ip", "dst_ip", "proto", "payload", "size")

    def __init__(self, src_ip: str, dst_ip: str, proto: int, payload: Any):
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.proto = proto
        self.payload = payload
        self.size = IP_HEADER + getattr(payload, "size", 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IP {self.src_ip}->{self.dst_ip} {self.payload!r}>"


class ArpPacket:
    """ARP request/reply."""

    __slots__ = ("op", "sender_ip", "sender_mac", "target_ip", "target_mac",
                 "size")

    REQUEST = 1
    REPLY = 2

    def __init__(self, op: int, sender_ip: str, sender_mac,
                 target_ip: str, target_mac=None):
        self.op = op
        self.sender_ip = sender_ip
        self.sender_mac = sender_mac
        self.target_ip = target_ip
        self.target_mac = target_mac
        self.size = 28

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "REQ" if self.op == self.REQUEST else "REPLY"
        return f"<ARP {kind} {self.sender_ip}->{self.target_ip}>"


class EthFrame:
    """An Ethernet frame; ``wire_size`` drives serialization delay.

    ``corrupted`` marks a frame whose payload was damaged in flight (the
    fault injector's bit-flip model); receiving NICs discard such frames
    at the link-layer CRC check, exactly like real hardware.
    """

    __slots__ = ("src_mac", "dst_mac", "ethertype", "payload", "corrupted",
                 "wire_size")

    def __init__(self, src_mac, dst_mac, ethertype: int, payload: Any,
                 corrupted: bool = False):
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.ethertype = ethertype
        self.payload = payload
        self.corrupted = corrupted
        inner = getattr(payload, "size", 0)
        self.wire_size = max(64, ETH_HEADER + inner)  # minimum Ethernet frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Eth {self.src_mac!r}->{self.dst_mac!r} {self.payload!r}>"

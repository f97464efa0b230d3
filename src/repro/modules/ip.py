"""The IP module.

IP's routing table lives in its module state, allocated from its protection
domain's heap — it is the paper's canonical example of a resource that
"cannot be directly associated with any individual IP flow" and so is
charged to the domain running the module.  Inbound, IP validates the
destination and demuxes to the transport; outbound, it routes, resolves the
next-hop MAC through ARP, and frames the datagram for ETH.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.sim.cpu import Cycles
from repro.core.demux import DemuxResult
from repro.core.path import Stage
from repro.modules.base import Module, OpenResult
from repro.modules.eth import OutFrame
from repro.net.addressing import Subnet
from repro.net.packet import ETHERTYPE_IP, IPDatagram, IPPROTO_TCP

ROUTE_ENTRY_BYTES = 64


class IpModule(Module):
    """IPv4 (no fragmentation: MSS < MTU throughout the testbed)."""

    interfaces = frozenset({"aio"})

    def __init__(self, kernel, name, pd, local_ip: str):
        super().__init__(kernel, name, pd)
        self.local_ip = local_ip
        #: (subnet, on_link) routing entries; the heap allocation below
        #: charges the table to this module's protection domain.
        self.routes: List[Tuple[Subnet, bool]] = []
        self._route_allocs = []
        self.rx_datagrams = 0
        self.tx_datagrams = 0
        self.drops = 0

    def init_module(self) -> Generator:
        # Everything in the testbed is on-link; a default route models the
        # rest of the Internet behind the hub.
        self.add_route(Subnet("0.0.0.0/0"), on_link=True)
        return
        yield  # pragma: no cover

    def add_route(self, subnet: Subnet, on_link: bool = True) -> None:
        """Install a route; the entry is charged to IP's domain heap."""
        alloc = self.pd.heap_alloc(ROUTE_ENTRY_BYTES, label=f"route {subnet.cidr}",
                                   allocator=self.kernel.allocator)
        self._route_allocs.append(alloc)
        self.routes.append((subnet, on_link))

    def route(self, dst_ip: str) -> Optional[Tuple[Subnet, bool]]:
        best = None
        for subnet, on_link in self.routes:
            if subnet.contains(dst_ip):
                if best is None or subnet.prefix_len > best[0].prefix_len:
                    best = (subnet, on_link)
        return best

    # ------------------------------------------------------------------
    # Path membership
    # ------------------------------------------------------------------
    def open(self, path, attrs, origin):
        # Paths always reach IP from a transport (or from IP's own side
        # protocols) and extend toward the device — never back up into a
        # different transport.
        from repro.modules.base import OpenResult
        stage = self.make_stage(path)
        extend = ["eth"] if (origin is None or origin.name != "eth") \
            and "eth" in self.graph else []
        return OpenResult(stage, extend)

    # ------------------------------------------------------------------
    # Demux
    # ------------------------------------------------------------------
    def demux(self, dgram: IPDatagram) -> DemuxResult:
        if dgram.dst_ip != self.local_ip:
            return DemuxResult.drop("ip-not-local")
        if dgram.proto == IPPROTO_TCP and "tcp" in self.graph:
            return DemuxResult.forward("tcp", dgram)
        if dgram.proto == 1 and "icmp" in self.graph:  # IPPROTO_ICMP
            return DemuxResult.forward("icmp", dgram)
        if dgram.proto == 17 and "udp" in self.graph:  # IPPROTO_UDP
            return DemuxResult.forward("udp", dgram)
        return DemuxResult.drop("ip-proto")

    # ------------------------------------------------------------------
    # Path processing
    # ------------------------------------------------------------------
    def forward(self, stage: Stage, dgram: IPDatagram) -> Generator:
        yield Cycles(self.costs.ip_rx + self.acct(1))
        if dgram.dst_ip != self.local_ip:
            self.drops += 1
            return False
        self.rx_datagrams += 1
        result = yield from stage.send_forward(dgram)
        return result

    def backward(self, stage: Stage, msg: Tuple) -> Generator:
        """Outbound: ``(dst_ip, payload)`` or ``(dst_ip, payload, proto)``
        — TCP by default, ICMP and others by explicit protocol number."""
        if len(msg) == 3:
            dst_ip, segment, proto = msg
        else:
            dst_ip, segment = msg
            proto = IPPROTO_TCP
        yield Cycles(self.costs.ip_tx + self.acct(1))
        if self.route(dst_ip) is None:
            self.drops += 1
            return False
        arp = self.graph.find("arp") if "arp" in self.graph else None
        dst_mac = arp.lookup(dst_ip) if arp is not None else None
        if dst_mac is None:
            self.drops += 1
            return False
        self.tx_datagrams += 1
        dgram = IPDatagram(self.local_ip, dst_ip, proto, segment)
        result = yield from stage.send_backward(
            OutFrame(dst_mac, ETHERTYPE_IP, dgram))
        return result

    def destroy_stage(self, stage: Stage) -> None:
        pass

"""A behavioural model of Apache 1.2.6 on Linux 2.0.34.

This is the comparator, not the contribution, so it is modelled at the
level the comparison needs:

* one serialized CPU (the same 300 MHz Alpha) — work items queue FIFO;
* no early demultiplexing: every arriving packet costs full in-kernel
  processing before the system knows who it is for (the paper's point
  about "the lack of accounting within the kernel");
* per-request Apache cost and per-data-segment cost calibrated to the
  ~400 conn/s plateau of Figure 8;
* a finite listen backlog (the era's SYN-flood victim): once the half-open
  queue fills, *legitimate* SYNs are dropped too — there is no per-source
  accounting to tell them apart, which is the paper's opening argument;
* ``kill + waitpid`` cost for Table 2;
* the same shared TCP engine as everyone else, so protocol behaviour
  (handshakes, slow start, delayed ACKs) is identical across servers.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.sim.clock import SERVER_TICKS_PER_CYCLE, millis_to_ticks
from repro.sim.costs import CostModel
from repro.sim.engine import Simulator
from repro.modules.http import HTTPRequest, RESPONSE_HEADER_BYTES
from repro.net.addressing import MacAddr
from repro.net.link import NIC
from repro.net.packet import (
    ETHERTYPE_IP,
    EthFrame,
    FLAG_ACK,
    FLAG_SYN,
    IPDatagram,
    IPPROTO_TCP,
    TCPSegment,
)
from repro.net.tcp import TCPActions, TCPEngine


class _LinuxConn:
    """Kernel socket + Apache worker state for one connection."""

    def __init__(self, server: "LinuxServer", engine: TCPEngine,
                 remote_ip: str):
        self.server = server
        self.engine = engine
        self.remote_ip = remote_ip
        self.request_charged = False
        self._rto_ev = None
        self._delack_ev = None

    def apply(self, actions: TCPActions) -> None:
        server = self.server
        sim = server.sim
        for seg in actions.segments:
            if seg.payload_len:
                server.work(server.costs.linux_per_data_segment,
                            lambda s=seg: server.send_segment(
                                self.remote_ip, s))
            else:
                server.send_segment(self.remote_ip, seg)
        for nbytes, data in actions.deliveries:
            if isinstance(data, HTTPRequest) and not self.request_charged:
                self.request_charged = True
                server.work(server.costs.linux_per_request,
                            lambda d=data: server.serve(self, d))
        if actions.cancel_rto and self._rto_ev is not None:
            self._rto_ev.cancel()
            self._rto_ev = None
        if actions.set_rto is not None:
            if self._rto_ev is not None:
                self._rto_ev.cancel()
            self._rto_ev = sim.schedule(
                actions.set_rto, lambda: self.apply(self.engine.on_rto()))
        if actions.cancel_delack and self._delack_ev is not None:
            self._delack_ev.cancel()
            self._delack_ev = None
        if actions.set_delack is not None:
            if self._delack_ev is not None:
                self._delack_ev.cancel()
            self._delack_ev = sim.schedule(
                actions.set_delack,
                lambda: self.apply(self.engine.on_delack()))
        if actions.closed:
            for ev in (self._rto_ev, self._delack_ev):
                if ev is not None:
                    ev.cancel()
            self._rto_ev = self._delack_ev = None
            server.drop_conn(self)


class LinuxServer:
    """Apache on a monolithic kernel, as Figure 8's baseline."""

    #: Half-open connection capacity (Linux 2.0-era listen backlog).
    LISTEN_BACKLOG = 128

    def __init__(self, sim: Simulator, ip: str = "10.0.0.80",
                 costs: Optional[CostModel] = None):
        self.sim = sim
        self.ip = ip
        self.costs = costs or CostModel.default()
        from repro.server.webserver import DEFAULT_DOCUMENTS
        self.documents = dict(DEFAULT_DOCUMENTS)
        self.nic = NIC(sim, label=f"linux-{ip}")
        self.nic.on_receive = self._on_frame
        self.arp_map: Dict[str, MacAddr] = {}
        self._conns: Dict[Tuple[int, str, int], _LinuxConn] = {}
        self._busy_until = 0
        self.busy_cycles = 0
        self.requests_served = 0
        self.requests_404 = 0
        self.syns_seen = 0
        self.syns_dropped_backlog = 0
        self.packets_processed = 0
        self.booted = False

    # ------------------------------------------------------------------
    def boot(self) -> None:
        self.booted = True

    def attach_network(self, medium) -> None:
        medium.attach(self.nic)

    # ------------------------------------------------------------------
    # The serialized CPU
    # ------------------------------------------------------------------
    def work(self, cycles: int, fn: Callable[[], None]) -> None:
        """Queue ``cycles`` of kernel/Apache work, then run ``fn``."""
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + cycles * SERVER_TICKS_PER_CYCLE
        self.busy_cycles += cycles
        self.sim.at(self._busy_until, fn)

    # ------------------------------------------------------------------
    # Packet handling: everything costs kernel work first
    # ------------------------------------------------------------------
    def _on_frame(self, frame: EthFrame) -> None:
        dgram = frame.payload
        if not isinstance(dgram, IPDatagram) or dgram.dst_ip != self.ip:
            return
        seg = dgram.payload
        if not isinstance(seg, TCPSegment):
            return
        self.packets_processed += 1
        # No early demux: the kernel does full protocol processing before
        # any principal can be charged — this is why a SYN flood hurts.
        self.work(self.costs.linux_syn_cost,
                  lambda: self._process(dgram, seg))

    def _process(self, dgram: IPDatagram, seg: TCPSegment) -> None:
        key = (seg.dst_port, dgram.src_ip, seg.src_port)
        conn = self._conns.get(key)
        if conn is not None:
            conn.apply(conn.engine.on_segment(seg))
            return
        if seg.flags & FLAG_SYN and not seg.flags & FLAG_ACK \
                and seg.dst_port == 80:
            self.syns_seen += 1
            half_open = sum(1 for c in self._conns.values()
                            if c.engine.half_open)
            if half_open >= self.LISTEN_BACKLOG:
                # The kernel cannot tell a flood SYN from a client SYN —
                # no accounting before the work reaches a principal.
                self.syns_dropped_backlog += 1
                return
            engine, actions = TCPEngine.passive_open(
                self.ip, 80, seg, dgram.src_ip,
                delayed_ack_ticks=millis_to_ticks(50))
            conn = _LinuxConn(self, engine, dgram.src_ip)
            self._conns[key] = conn
            conn.apply(actions)

    def drop_conn(self, conn: _LinuxConn) -> None:
        for key, value in list(self._conns.items()):
            if value is conn:
                del self._conns[key]

    # ------------------------------------------------------------------
    # Apache
    # ------------------------------------------------------------------
    def serve(self, conn: _LinuxConn, request: HTTPRequest) -> None:
        if conn.engine.closed:
            return
        size = self.documents.get(request.uri)
        if size is None:
            self.requests_404 += 1
            conn.apply(conn.engine.send(RESPONSE_HEADER_BYTES + 90,
                                        fin=True))
            return
        self.requests_served += 1
        conn.apply(conn.engine.send(RESPONSE_HEADER_BYTES + size, fin=True))

    def send_segment(self, dst_ip: str, seg: TCPSegment) -> None:
        mac = self.arp_map.get(dst_ip)
        if mac is None:
            return
        dgram = IPDatagram(self.ip, dst_ip, IPPROTO_TCP, seg)
        self.nic.send(EthFrame(self.nic.mac, mac, ETHERTYPE_IP, dgram))

    def seed_arp(self, ip: str, mac: MacAddr) -> None:
        """Static addressing, like the Scout server's seeded ARP."""
        self.arp_map[ip] = mac

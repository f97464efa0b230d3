"""The deterministic L4 front-end dispatcher.

One front NIC faces the edge (hub side, owning the cluster VIP's MAC) and
one backside NIC per replica faces a point-to-point link to that replica.
Steering is MAC-level — the replicas all believe they *are* the VIP, so no
address rewriting happens; the dispatcher only re-frames datagrams:

* **edge → replica**: a TCP segment for the VIP is matched against the
  sticky connection map ``(src_ip, src_port, dst_port) -> replica``; a new
  SYN picks its replica by highest-rendezvous-hash over the currently
  healthy set (so a replica joining or leaving only remaps the flows that
  must move), unless a defense steering override quarantines its /24
  prefix, and edge token buckets shed flagged prefixes before any replica
  pays a cycle for them;
* **replica → edge**: replies are re-framed to the client's real MAC;
  probe replies are peeled off to the health monitor.

When a replica goes down the dispatcher **drains** it: every sticky entry
is dropped and clients with known MACs receive a forged RST so their
retry stack re-issues the request immediately instead of waiting out a
TCP retransmit ladder against a dead box.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from repro.defense.ratelimit import TokenBucket
from repro.modules.icmp import IPPROTO_ICMP, IcmpEcho
from repro.net.addressing import MacAddr
from repro.net.link import NIC
from repro.net.packet import (
    ETHERTYPE_IP,
    FLAG_ACK,
    FLAG_RST,
    FLAG_SYN,
    EthFrame,
    IPDatagram,
    IPPROTO_TCP,
    TCPSegment,
)

#: The dispatcher's own address on the backside links; replicas route
#: probe replies here (it is ARP-seeded on every replica).
PROBE_IP = "10.0.1.254"


def _prefix(ip: str) -> str:
    """The /24 prefix key used throughout the defense layers."""
    return ip.rsplit(".", 1)[0]


class ClusterDispatcher:
    """MAC-level L4 dispatcher in front of N Escort replicas."""

    def __init__(self, sim, vip: str, replica_macs: List[MacAddr]):
        self.sim = sim
        self.vip = vip
        #: The :class:`~repro.cluster.health.HealthMonitor`, attached by
        #: the harness once the monitor is built.
        self.health = None
        self.front = NIC(sim, label="lb-front")
        self.front.on_receive = self._from_edge
        self.backs: List[NIC] = []
        self.replica_macs = list(replica_macs)
        for i in range(len(replica_macs)):
            back = NIC(sim, label=f"lb-back-{i}")
            back.on_receive = lambda frame, idx=i: self._from_replica(
                idx, frame)
            self.backs.append(back)

        #: Sticky flow table: (src_ip, src_port, dst_port) -> replica.
        self.conn_map: Dict[Tuple[str, int, int], int] = {}
        #: Defense steering overrides: /24 prefix -> quarantine replica.
        self.steer_map: Dict[str, int] = {}
        #: Edge shedding: /24 prefix -> TokenBucket applied to SYNs.
        self.edge_buckets: Dict[str, TokenBucket] = {}

        self.forwarded_in = 0
        self.forwarded_out = 0
        self.edge_shed = 0
        self.drops_no_replica = 0
        self.drops_not_vip = 0
        self.drops_unknown_client = 0
        self.drained_conns = 0
        self.rst_sent = 0
        self.probe_replies = 0
        #: Client IP -> MAC (seeded by the harness, like every ARP cache
        #: in the testbed).
        self.arp_map: Dict[str, MacAddr] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def learn(self, ip: str, mac: MacAddr) -> None:
        self.arp_map[ip] = mac

    def attach_front(self, medium) -> None:
        medium.attach(self.front)

    # ------------------------------------------------------------------
    # Edge -> replica
    # ------------------------------------------------------------------
    def _from_edge(self, frame: EthFrame) -> None:
        dgram = frame.payload
        if not isinstance(dgram, IPDatagram) or dgram.dst_ip != self.vip:
            self.drops_not_vip += 1
            return
        seg = dgram.payload
        if not isinstance(seg, TCPSegment):
            self.drops_not_vip += 1
            return
        is_syn = bool(seg.flags & FLAG_SYN) and not seg.flags & FLAG_ACK
        prefix = _prefix(dgram.src_ip)
        if is_syn:
            bucket = self.edge_buckets.get(prefix)
            if bucket is not None and not bucket.allow(self.sim.now):
                # Shed at the edge: the replica never sees this SYN, so
                # the ladder's lethal rungs have nothing to fire at.
                self.edge_shed += 1
                return
        key = (dgram.src_ip, seg.src_port, seg.dst_port)
        index = self.conn_map.get(key)
        if index is None or not self._healthy(index):
            index = self._steer(dgram.src_ip, seg.src_port, prefix)
            if index is None:
                self.drops_no_replica += 1
                return
            if is_syn:
                self.conn_map[key] = index
        self.forwarded_in += 1
        self._to_replica(index, dgram)

    def _healthy(self, index: int) -> bool:
        return self.health is None or self.health.healthy(index)

    def _steer(self, src_ip: str, src_port: int,
               prefix: str) -> Optional[int]:
        """Pick a replica for a new flow, deterministically."""
        override = self.steer_map.get(prefix)
        if override is not None and self._healthy(override):
            return override
        if self.health is None:
            candidates = range(len(self.backs))
        else:
            candidates = self.health.healthy_indices()
        best, best_weight = None, -1
        for index in candidates:
            weight = zlib.crc32(
                f"{src_ip}:{src_port}:{index}".encode())
            if weight > best_weight:
                best, best_weight = index, weight
        return best

    def _to_replica(self, index: int, dgram: IPDatagram) -> None:
        self.backs[index].send(EthFrame(
            self.backs[index].mac, self.replica_macs[index],
            ETHERTYPE_IP, dgram))

    # ------------------------------------------------------------------
    # Replica -> edge
    # ------------------------------------------------------------------
    def _from_replica(self, index: int, frame: EthFrame) -> None:
        dgram = frame.payload
        if not isinstance(dgram, IPDatagram):
            return
        if dgram.proto == IPPROTO_ICMP and dgram.dst_ip == PROBE_IP:
            echo = dgram.payload
            if isinstance(echo, IcmpEcho) and echo.kind == IcmpEcho.REPLY:
                self.probe_replies += 1
                if self.health is not None:
                    self.health.on_reply(index, echo.seq)
            return
        seg = dgram.payload
        if not isinstance(seg, TCPSegment):
            return
        if seg.flags & FLAG_RST:
            # The replica tore the flow down; unstick it so a client
            # retry re-steers fresh.
            self.conn_map.pop((dgram.dst_ip, seg.dst_port, seg.src_port),
                              None)
        mac = self.arp_map.get(dgram.dst_ip)
        if mac is None:
            # Spoofed source (SYN flood): exactly like the single-server
            # testbed, the reply has nowhere to go.
            self.drops_unknown_client += 1
            return
        self.forwarded_out += 1
        self.front.send(EthFrame(self.front.mac, mac, ETHERTYPE_IP, dgram))

    # ------------------------------------------------------------------
    # Health probes (sent for the HealthMonitor, which owns the timing)
    # ------------------------------------------------------------------
    def send_probe(self, index: int, seq: int) -> None:
        echo = IcmpEcho(IcmpEcho.REQUEST, ident=index, seq=seq)
        dgram = IPDatagram(PROBE_IP, self.vip, IPPROTO_ICMP, echo)
        self.backs[index].send(EthFrame(
            self.backs[index].mac, self.replica_macs[index],
            ETHERTYPE_IP, dgram))

    # ------------------------------------------------------------------
    # Failover: drain a dead replica
    # ------------------------------------------------------------------
    def drain(self, index: int) -> int:
        """Drop every sticky flow on ``index``; RST reachable clients.

        The forged RST (the flow's server-side endpoint, sequence numbers
        zero — the client engine accepts any RST) converts a silent
        blackhole into an immediate, retryable failure.  Returns the
        number of flows drained.
        """
        doomed = sorted(key for key, idx in self.conn_map.items()
                        if idx == index)
        for key in doomed:
            del self.conn_map[key]
            src_ip, src_port, dst_port = key
            mac = self.arp_map.get(src_ip)
            if mac is None:
                continue  # spoofed flood entry: nothing to notify
            seg = TCPSegment(dst_port, src_port, seq=0, ack=0,
                             flags=FLAG_RST)
            dgram = IPDatagram(self.vip, src_ip, IPPROTO_TCP, seg)
            self.front.send(EthFrame(self.front.mac, mac, ETHERTYPE_IP,
                                     dgram))
            self.rst_sent += 1
        self.drained_conns += len(doomed)
        return len(doomed)

    # ------------------------------------------------------------------
    def per_replica_flows(self) -> List[int]:
        counts = [0] * len(self.backs)
        for index in self.conn_map.values():
            counts[index] += 1
        return counts

    def summary(self) -> Dict:
        """Digest-stable view of the dispatcher state."""
        return {
            "forwarded_in": self.forwarded_in,
            "forwarded_out": self.forwarded_out,
            "edge_shed": self.edge_shed,
            "drops_no_replica": self.drops_no_replica,
            "drops_not_vip": self.drops_not_vip,
            "drops_unknown_client": self.drops_unknown_client,
            "drained_conns": self.drained_conns,
            "rst_sent": self.rst_sent,
            "probe_replies": self.probe_replies,
            "flows": len(self.conn_map),
            "flows_per_replica": self.per_replica_flows(),
            "steer": {p: i for p, i in sorted(self.steer_map.items())},
            "edge_buckets": sorted(self.edge_buckets),
        }

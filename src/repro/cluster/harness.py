"""The clustered machine room: N replicas, a dispatcher, the edge.

Extends the Figure-7 topology one step toward the ROADMAP's
production-scale north star: clients and attackers keep their places on
the switch and hub, but the server's spot on the hub is taken by the
dispatcher's front NIC, with each Escort replica on its own point-to-point
backside link behind it.  Addressing stays static (warm ARP caches
everywhere, as in the paper's testbed); the cluster VIP is the original
server address, so every client-side component works unchanged.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.costs import CostModel
from repro.sim.engine import Simulator
from repro.net.addressing import Subnet
from repro.net.link import Hub, Switch
from repro.workload.clients import HttpClient
from repro.workload.stats import WorkloadStats
from repro.workload.syn_attacker import SynAttacker

from repro.cluster.defense import ClusterDefense
from repro.cluster.dispatcher import PROBE_IP, ClusterDispatcher
from repro.cluster.health import HealthMonitor
from repro.cluster.replica import Replica

#: The cluster's virtual IP: the original server address, so clients are
#: oblivious to whether one box or N stand behind it.
VIP = "10.0.0.80"
TRUSTED_SUBNET = Subnet("10.1.0.0/16")
UNTRUSTED_SUBNET = Subnet("10.9.0.0/16")
#: Each replica's SYN_RCVD cap on the untrusted passive path.
UNTRUSTED_CAP = 16


class ClusterTestbed:
    """One complete clustered machine room."""

    __test__ = False  # not a pytest test class despite the harness role

    def __init__(self, *, replicas: int = 3, adaptive: bool = True):
        if replicas < 1:
            raise ValueError("a cluster needs at least one replica")
        self.sim = Simulator()
        self.costs = CostModel.default()
        self.stats = WorkloadStats()
        self.adaptive = adaptive

        self.hub = Hub(self.sim, latency=self.costs.hub_latency_ticks)
        self.switch = Switch(self.sim,
                             latency=self.costs.switch_latency_ticks)
        self.switch.attach_uplink(self.hub)

        self.replicas: List[Replica] = []
        for index in range(replicas):
            self.replicas.append(Replica(
                self.sim, index, VIP, policies=self._replica_policies()))

        self.dispatcher = ClusterDispatcher(
            self.sim, VIP,
            [r.server.nic.mac for r in self.replicas])
        self.dispatcher.attach_front(self.hub)
        self.health = HealthMonitor(
            self.sim, self.dispatcher.send_probe, replicas,
            on_down=self.dispatcher.drain)
        self.dispatcher.health = self.health

        for index, replica in enumerate(self.replicas):
            replica.wire(self.dispatcher.backs[index])
            replica.seed_arp(PROBE_IP, self.dispatcher.backs[index].mac)

        self.defense: Optional[ClusterDefense] = None
        if adaptive:
            self.defense = ClusterDefense(
                self.sim, self.replicas, self.dispatcher, self.health)

        self.clients: List[HttpClient] = []
        self.syn_attacker: Optional[SynAttacker] = None
        self._client_seq = 0

    def _replica_policies(self) -> List:
        """Fresh policy objects per replica (policies hold server state).

        The per-replica controller keeps every rung of the standalone
        defense, but its ratelimit floor is raised to the cluster-wide
        :data:`~repro.cluster.defense.PREFIX_RATE_FLOOR`: sticky
        rendezvous steering can land a legitimate prefix's whole burst
        on one replica, and a floor sized for a standalone machine
        would read that placement artifact as an attack.
        """
        from repro.cluster.defense import PREFIX_RATE_FLOOR
        from repro.policy import AdaptivePolicy, SynFloodPolicy
        static = [SynFloodPolicy(TRUSTED_SUBNET,
                                 untrusted_cap=UNTRUSTED_CAP)]
        if self.adaptive:
            return [AdaptivePolicy(
                *static, prefix_rate_floor=PREFIX_RATE_FLOOR)]
        return static

    # ------------------------------------------------------------------
    #: The digest/replay "primary": per-event fingerprints and the
    #: single-server tooling read ``bed.server`` — replica 0 stands in.
    @property
    def server(self):
        return self.replicas[0].server

    # ------------------------------------------------------------------
    # Workload construction (mirrors the single-server Testbed)
    # ------------------------------------------------------------------
    def add_clients(self, count: int, document: str = "/doc-1k",
                    retry: bool = False) -> List[HttpClient]:
        """Attach serial-request clients on the switch (with the retry
        stack when ``retry``)."""
        added = []
        for _ in range(count):
            self._client_seq += 1
            seq = self._client_seq
            ip = f"10.1.0.{(seq - 1) % 250 + 1}" if seq <= 250 \
                else f"10.1.1.{seq - 250}"
            client = HttpClient(self.sim, ip, VIP, document,
                                costs=self.costs, stats=self.stats,
                                retry=retry)
            client.attach(self.switch)
            client.learn(VIP, self.dispatcher.front.mac)
            self.dispatcher.learn(ip, client.nic.mac)
            # Replies leave each replica over its backside link; the
            # replica resolves any client IP to that link's far end.
            for index, replica in enumerate(self.replicas):
                replica.seed_arp(ip, self.dispatcher.backs[index].mac)
            self.clients.append(client)
            added.append(client)
        return added

    def add_syn_attacker(self, rate_per_second: int = 1000,
                         spoof_subnet: Optional[Subnet] = None,
                         ramp_to: Optional[int] = None,
                         ramp_seconds: float = 0.0,
                         spoof_hosts: int = 500) -> SynAttacker:
        """Attach the SYN flood on the hub, aimed at the dispatcher."""
        attacker = SynAttacker(
            self.sim, VIP, self.dispatcher.front.mac,
            spoof_subnet=spoof_subnet or UNTRUSTED_SUBNET,
            rate_per_second=rate_per_second,
            ramp_to=ramp_to, ramp_seconds=ramp_seconds,
            spoof_hosts=spoof_hosts)
        attacker.attach(self.hub)
        self.syn_attacker = attacker
        return attacker

    # ------------------------------------------------------------------
    # Lifecycle (milestone actions for ClusterRun)
    # ------------------------------------------------------------------
    def boot(self) -> None:
        for replica in self.replicas:
            replica.server.boot()

    def start_load(self) -> None:
        """Start traffic, health probing and the cluster defense loop."""
        for client in self.clients:
            client.start()
        if self.syn_attacker is not None:
            self.syn_attacker.start()
        self.health.start()
        if self.defense is not None:
            self.defense.start()

    def begin_window(self) -> int:
        return self.sim.now


"""One Escort replica behind the dispatcher.

Each replica is a full :class:`~repro.server.webserver.ScoutWebServer`
configured with the *cluster VIP* as its local address (MAC-level steering:
the dispatcher never rewrites datagrams, so every replica must believe it
is the VIP), connected to its backside dispatcher NIC by a point-to-point
link.  A zero-probability :class:`~repro.net.fault.FaultInjector` sits on
that link as the replica's **fault gate**: chaos scenarios crash the
replica, partition it from the dispatcher, or flap its link purely by
driving ``set_link`` — the server object itself is never mutated, which is
what keeps a crashed replica's state deterministic and digestable.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.fault import FaultInjector
from repro.net.link import Link
from repro.server.webserver import ScoutWebServer
from repro.workload.cgi_attacker import busy_cgi, runaway_cgi


class Replica:
    """One cluster member: server + backside link + fault gate."""

    def __init__(self, sim, index: int, vip: str, *,
                 policies: Optional[List] = None,
                 costs=None):
        self.sim = sim
        self.index = index
        self.vip = vip
        self.policies = policies or []

        listen_specs = None
        for policy in self.policies:
            specs = policy.listen_specs()
            if specs is not None:
                listen_specs = (listen_specs or []) + list(specs)

        self.server = ScoutWebServer(
            sim, accounting=True, protection_domains=False,
            ip=vip,
            cgi_scripts={"loop": runaway_cgi, "busy": busy_cgi},
            listen_specs=listen_specs, costs=costs)
        for policy in self.policies:
            policy.apply(self.server)

        #: The point-to-point wire to the dispatcher's backside NIC.  The
        #: dispatcher NIC attaches first (the harness wires it), then the
        #: fault gate interposes on the server side.
        self.link = Link(sim)
        self.gate = FaultInjector(sim, self.link)

        self.crashes = 0
        self.restores = 0
        self.flushed_paths = 0

    # ------------------------------------------------------------------
    def wire(self, back_nic) -> None:
        """Connect dispatcher backside NIC <-> fault gate <-> server NIC."""
        self.link.attach(back_nic)
        # Interpose both directions on the server side: a downed gate then
        # cuts the replica off completely (crash/partition look identical
        # from the wire, which is the point).
        self.gate.attach(self.server.nic, receive=True)

    def seed_arp(self, ip: str, mac) -> None:
        self.server.seed_arp(ip, mac)

    # ------------------------------------------------------------------
    # Chaos actuators
    # ------------------------------------------------------------------
    @property
    def link_up(self) -> bool:
        return self.gate.link_up

    def crash(self) -> None:
        """Fail-stop: the replica stops answering anything."""
        if not self.gate.link_up:
            return
        self.crashes += 1
        self.gate.set_link(False)

    def partition(self) -> None:
        """Cut the dispatcher link (indistinguishable from a crash on the
        wire; the distinction is what restore does)."""
        self.gate.set_link(False)

    def heal_partition(self) -> None:
        """Reconnect after a partition: connection state survived."""
        self.gate.set_link(True)

    def restore(self) -> None:
        """Cold restart after a crash: flush connection state, reconnect.

        A rebooted machine has no TCP state, so every live connection path
        is forcibly reclaimed (never gracefully: nothing ran during the
        outage) before the link comes back.
        """
        self.restores += 1
        self.flushed_paths += self._flush_connections()
        self.gate.set_link(True)

    def _flush_connections(self) -> int:
        server = self.server
        flushed = 0
        for key in sorted(server.tcp.conn_table):
            path = server.tcp.conn_table[key]
            if path is None or path.destroyed:
                continue
            server.path_manager.path_kill(path)
            flushed += 1
        server.tcp.conn_table.clear()
        return flushed

    # ------------------------------------------------------------------
    def describe(self) -> str:
        state = "up" if self.gate.link_up else "DOWN"
        return (f"replica-{self.index} [{state}] "
                f"{self.server.describe()}")

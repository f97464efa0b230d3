"""Assembling the Scout web server.

Builds the module graph of Figure 1 — SCSI, FS, HTTP, TCP, IP, ARP, ETH —
over an Escort kernel, with protection domains assigned per configuration:
everything in the privileged domain for the single-domain configurations,
or one domain per module for Accounting_PD (Figure 3, "the maximum
possible separation").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.clock import millis_to_ticks
from repro.sim.costs import CostModel
from repro.sim.engine import Simulator
from repro.core.demux import Demultiplexer
from repro.core.lifecycle import PathManager
from repro.kernel.acl import Role
from repro.kernel.kernel import Kernel, KernelConfig
from repro.modules.arp import ArpModule
from repro.modules.eth import EthModule
from repro.modules.fs import FsModule
from repro.modules.graph import ModuleGraph
from repro.modules.http import HttpModule, ListenSpec
from repro.modules.icmp import IcmpModule
from repro.modules.udp import UdpModule
from repro.modules.ip import IpModule
from repro.modules.scsi import ScsiModule
from repro.modules.tcp import TcpModule
from repro.net.link import NIC

#: The document set served in the paper's experiments.
DEFAULT_DOCUMENTS = {
    "/doc-1": 1,
    "/doc-1k": 1024,
    "/doc-10k": 10 * 1024,
    "/stream-meta": 64,
}

#: The server's delayed-ACK timer, in milliseconds.
SERVER_DELACK_MS = 50.0

#: Graph positions (network end low, disk end high; gaps leave room for
#: filters).
POSITIONS = {"eth": 0, "arp": 5, "ip": 10, "icmp": 12, "udp": 14,
             "tcp": 20, "http": 30, "fs": 40, "scsi": 50}


class ScoutWebServer:
    """One simulated Escort machine configured as a web server."""

    def __init__(self, sim: Simulator, *,
                 accounting: bool = True,
                 protection_domains: bool = False,
                 ip: str = "10.0.0.80",
                 cgi_scripts: Optional[Dict[str, Callable]] = None,
                 listen_specs: Optional[List[ListenSpec]] = None,
                 costs: Optional[CostModel] = None,
                 domain_groups: Optional[List[List[str]]] = None):
        self.sim = sim
        self.ip = ip
        config = KernelConfig(accounting=accounting,
                              protection_domains=protection_domains,
                              costs=costs or CostModel.default())
        self.kernel = Kernel(sim, config)
        self.graph = ModuleGraph(self.kernel)
        self.demultiplexer = Demultiplexer(self.kernel, self.graph)
        self.path_manager = PathManager(self.kernel, self.graph)
        self.nic = NIC(sim, label=f"server-{ip}")

        # -- protection domain placement --------------------------------
        # Default: "the maximum possible separation" (Figure 3), one
        # domain per module.  ``domain_groups`` lets the system builder
        # combine modules — the paper suggests TCP, IP and ETH might
        # reasonably share one domain, with much lower crossing cost.
        group_of = {}
        for group in (domain_groups or []):
            shared = None
            for name in group:
                if shared is None:
                    shared = name
                group_of[name] = shared
        created = {}

        def domain_for(name: str, role: Role):
            if not protection_domains:
                return self.kernel.privileged_domain
            anchor = group_of.get(name, name)
            if anchor not in created:
                created[anchor] = self.kernel.create_domain(
                    f"pd-{anchor}", role=role)
            return created[anchor]

        pd_eth = domain_for("eth", Role.driver())
        pd_arp = domain_for("arp", Role.module())
        pd_ip = domain_for("ip", Role.module())
        pd_icmp = domain_for("icmp", Role.module())
        pd_udp = domain_for("udp", Role.module())
        pd_tcp = domain_for("tcp", Role.module())
        pd_http = domain_for("http", Role.module())
        pd_fs = domain_for("fs", Role.module())
        pd_scsi = domain_for("scsi", Role.driver())

        # -- modules -----------------------------------------------------
        self.eth = EthModule(self.kernel, "eth", pd_eth)
        self.arp = ArpModule(self.kernel, "arp", pd_arp, local_ip=ip)
        self.ip_mod = IpModule(self.kernel, "ip", pd_ip, local_ip=ip)
        self.icmp = IcmpModule(self.kernel, "icmp", pd_icmp)
        self.udp = UdpModule(self.kernel, "udp", pd_udp, local_ip=ip)
        self.tcp = TcpModule(
            self.kernel, "tcp", pd_tcp, local_ip=ip,
            server_delack_ticks=millis_to_ticks(SERVER_DELACK_MS))
        self.http = HttpModule(self.kernel, "http", pd_http,
                               listen_specs=listen_specs,
                               cgi_scripts=cgi_scripts)
        self.fs = FsModule(self.kernel, "fs", pd_fs,
                           documents=dict(DEFAULT_DOCUMENTS))
        self.scsi = ScsiModule(self.kernel, "scsi", pd_scsi)

        for module in (self.eth, self.arp, self.ip_mod, self.icmp,
                       self.udp, self.tcp, self.http, self.fs,
                       self.scsi):
            self.graph.add(module, POSITIONS[module.name])

        self.graph.connect("eth", "arp")
        self.graph.connect("eth", "ip")
        self.graph.connect("ip", "tcp")
        self.graph.connect("ip", "icmp")
        self.graph.connect("ip", "udp")
        self.graph.connect("tcp", "http")
        self.graph.connect("http", "fs")
        self.graph.connect("fs", "scsi")

        # Wire kernel services into the modules that create paths.
        self.arp.path_manager = self.path_manager
        self.icmp.path_manager = self.path_manager
        self.udp.path_manager = self.path_manager
        self.tcp.path_manager = self.path_manager
        self.http.path_manager = self.path_manager
        self.eth.bind(self.nic, self.demultiplexer)

        #: Attached by AdaptivePolicy: the closed-loop defense controller.
        self.defense = None

        self.booted = False

    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Start the kernel and initialize every module in its domain."""
        if self.booted:
            return
        self.booted = True
        self.kernel.boot()
        self.graph.boot()

    def attach_network(self, medium) -> None:
        medium.attach(self.nic)

    def seed_arp(self, ip: str, mac) -> None:
        self.arp.seed(ip, mac)

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------
    @property
    def costs(self) -> CostModel:
        return self.kernel.costs

    def passive_path(self, index: int = 0):
        return self.http.passive_paths[index]

    def active_paths(self) -> List:
        return [p for p in self.tcp.conn_table.values() if not p.destroyed]

    def half_open(self) -> int:
        """Connections in SYN_RCVD across the listeners (defense signal)."""
        return self.tcp.half_open()

    @property
    def degrade_level(self) -> int:
        return self.http.degrade_level

    def set_degrade_level(self, level: int) -> None:
        """Graceful-degradation actuator (defense ladder rung 4)."""
        self.http.degrade_level = level

    def describe(self) -> str:
        cfg = self.kernel.config
        kind = ("Accounting_PD" if cfg.protection_domains
                else "Accounting" if cfg.accounting else "Scout")
        return (f"{kind} web server at {self.ip} "
                f"({len(self.kernel.domains)} domains, "
                "proportional scheduler)")

"""Scout modules: the units of program development and configurability.

Each module provides a well-defined, independent service (paper section
2.1): device drivers (:mod:`repro.modules.eth`, :mod:`repro.modules.scsi`),
network protocols (:mod:`repro.modules.arp`, :mod:`repro.modules.ip`,
:mod:`repro.modules.tcp`, :mod:`repro.modules.http`), the file system
(:mod:`repro.modules.fs`), and policy *filters*
(:mod:`repro.modules.filters`).  Modules are assembled into a
:class:`~repro.modules.graph.ModuleGraph` at configuration time; paths are
threaded through the graph at run time.
"""

from repro.modules.base import Module, OpenResult
from repro.modules.graph import ModuleGraph
from repro.modules.eth import EthModule, OutFrame
from repro.modules.arp import ArpModule
from repro.modules.ip import IpModule
from repro.modules.tcp import TcpModule
from repro.modules.http import HttpModule, HTTPRequest, ListenSpec
from repro.modules.icmp import IcmpModule, IcmpEcho
from repro.modules.udp import UdpModule, UDPDatagram
from repro.modules.fs import FsModule, FileRead
from repro.modules.scsi import ScsiModule, ScsiRead
from repro.modules.filters import FilterModule, PortFilter

__all__ = [
    "Module",
    "OpenResult",
    "ModuleGraph",
    "EthModule",
    "OutFrame",
    "ArpModule",
    "IpModule",
    "TcpModule",
    "HttpModule",
    "HTTPRequest",
    "ListenSpec",
    "IcmpModule",
    "IcmpEcho",
    "UdpModule",
    "UDPDatagram",
    "FsModule",
    "FileRead",
    "ScsiModule",
    "ScsiRead",
    "FilterModule",
    "PortFilter",
]

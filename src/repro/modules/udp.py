"""The UDP module.

UDP is one of the paper's canonical module examples ("modules that
implement networking protocols, such as HTTP, IP, UDP, or TCP").  It also
exercises a path shape the web server does not: a *bound datagram path*
that exists for as long as an application holds the port, with every
datagram to that port charged to the same path — the natural owner for,
say, a DNS or NTP service's resource consumption.

Applications bind a port with a handler; binding creates the path
([ETH, IP, UDP]); datagrams demux by destination port.  Handlers are
generators running on the path's thread pool and may reply through the
same stage (the reply is charged to the same path).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator

from repro.sim.cpu import Cycles
from repro.core.attributes import Attributes
from repro.core.demux import DemuxResult
from repro.core.path import Stage
from repro.modules.base import Module, OpenResult
from repro.net.packet import IPDatagram

#: IP protocol number for UDP.
IPPROTO_UDP = 17
UDP_HEADER = 8
UDP_RX_COST = 4_000
UDP_TX_COST = 4_500


class UDPDatagram:
    """A UDP datagram: ports plus simulated payload."""

    __slots__ = ("src_port", "dst_port", "payload_len", "app_data")

    def __init__(self, src_port: int, dst_port: int, payload_len: int,
                 app_data: Any = None):
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload_len = payload_len
        self.app_data = app_data

    @property
    def size(self) -> int:
        return UDP_HEADER + self.payload_len

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UDP {self.src_port}->{self.dst_port} len={self.payload_len}>"


class UdpModule(Module):
    """Datagram service over the path architecture."""

    interfaces = frozenset({"aio"})

    def __init__(self, kernel, name, pd, local_ip: str):
        super().__init__(kernel, name, pd)
        self.local_ip = local_ip
        self.path_manager = None  # injected by the server assembly
        #: port -> bound path
        self.bindings: Dict[int, object] = {}
        #: port -> handler(stage, src_ip, dgram) generator function
        self.handlers: Dict[int, Callable] = {}
        self.rx_datagrams = 0
        self.tx_datagrams = 0
        self.drops = 0

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, port: int, handler: Callable,
             name: str = "") -> Generator:
        """Thread-body helper: bind ``port`` and create its path."""
        if port in self.bindings:
            raise ValueError(f"UDP port {port} already bound")
        self.handlers[port] = handler
        path = yield from self.path_manager.path_create(
            Attributes(udp=True, local_port=port),
            start_module=self.name,
            name=name or f"udp-{port}")
        self.bindings[port] = path
        path.on_destroy(lambda p, port=port: self._unbind(port))
        return path

    def _unbind(self, port: int) -> None:
        self.bindings.pop(port, None)
        self.handlers.pop(port, None)

    def open(self, path, attrs, origin):
        if not attrs.get("udp"):
            return None
        stage = self.make_stage(path)
        stage.state["port"] = attrs.require("local_port")
        extend = ["ip"] if origin is None else []
        return OpenResult(stage, extend)

    # ------------------------------------------------------------------
    # Demux
    # ------------------------------------------------------------------
    def demux(self, dgram: IPDatagram) -> DemuxResult:
        udp: UDPDatagram = dgram.payload
        path = self.bindings.get(udp.dst_port)
        if path is None or path.destroyed:
            return DemuxResult.drop("udp-no-binding")
        return DemuxResult.to_path(path)

    # ------------------------------------------------------------------
    # Path processing
    # ------------------------------------------------------------------
    def forward(self, stage: Stage, dgram: IPDatagram) -> Generator:
        udp: UDPDatagram = dgram.payload
        yield Cycles(UDP_RX_COST + self.acct(1))
        handler = self.handlers.get(udp.dst_port)
        if handler is None:
            self.drops += 1
            return False
        self.rx_datagrams += 1
        result = yield from handler(stage, dgram.src_ip, udp)
        return result

    def send(self, stage: Stage, dst_ip: str, src_port: int,
             dst_port: int, payload_len: int,
             app_data: Any = None) -> Generator:
        """Transmit a datagram out of the bound path."""
        yield Cycles(UDP_TX_COST + self.costs.copy_cost(payload_len)
                     + self.acct(1))
        self.tx_datagrams += 1
        out = UDPDatagram(src_port, dst_port, payload_len, app_data)
        result = yield from stage.send_backward((dst_ip, out, IPPROTO_UDP))
        return result


def echo_handler(udp_module: UdpModule):
    """A ready-made echo service handler (for tests and examples)."""

    def handler(stage, src_ip, dgram) -> Generator:
        result = yield from udp_module.send(
            stage, src_ip, dgram.dst_port, dgram.src_port,
            dgram.payload_len, app_data=dgram.app_data)
        return result

    return handler

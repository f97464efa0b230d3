"""The ICMP module (echo request/reply).

The paper uses ICMP echo as its example of Escort's thread/stack design:
"a thread used to deliver an ICMP echo request datagram is also used to
send the ICMP response, thereby crossing the protection domain containing
IP twice" — which is why path threads keep one stack per crossable domain
instead of allocating a fresh stack per crossing (section 3.2).

The module creates one ICMP path ([ETH, IP, ICMP]) at boot; echo requests
demux to it, and the same path thread that carries the request up carries
the reply back down.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.cpu import Cycles
from repro.core.attributes import Attributes
from repro.core.demux import DemuxResult
from repro.core.path import Stage
from repro.modules.base import Module, OpenResult
from repro.net.packet import IPDatagram

ICMP_PROCESS_COST = 2_000

#: IP protocol number for ICMP.
IPPROTO_ICMP = 1


class IcmpEcho:
    """An echo request or reply."""

    __slots__ = ("kind", "ident", "seq", "payload_len")

    REQUEST = 8
    REPLY = 0

    def __init__(self, kind: int, ident: int, seq: int,
                 payload_len: int = 56):
        self.kind = kind
        self.ident = ident
        self.seq = seq
        self.payload_len = payload_len

    @property
    def size(self) -> int:
        return 8 + self.payload_len

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "REQ" if self.kind == self.REQUEST else "REPLY"
        return f"<ICMP {kind} id={self.ident} seq={self.seq}>"


class IcmpModule(Module):
    """Echo responder over the path architecture."""

    interfaces = frozenset({"aio"})

    def __init__(self, kernel, name, pd):
        super().__init__(kernel, name, pd)
        self.path_manager = None  # injected by the server assembly
        self.icmp_path = None
        self.requests_answered = 0
        self.replies_seen = 0

    def init_module(self) -> Generator:
        if self.path_manager is None:
            return
        self.icmp_path = yield from self.path_manager.path_create(
            Attributes(icmp=True), start_module=self.name,
            name="icmp-path")

    def open(self, path, attrs, origin):
        if attrs.get("icmp"):
            stage = self.make_stage(path)
            extend = ["ip"] if origin is None else []
            return OpenResult(stage, extend)
        return None

    # ------------------------------------------------------------------
    def demux(self, dgram: IPDatagram) -> DemuxResult:
        if self.icmp_path is None or self.icmp_path.destroyed:
            return DemuxResult.drop("icmp-no-path")
        return DemuxResult.to_path(self.icmp_path)

    # ------------------------------------------------------------------
    def forward(self, stage: Stage, dgram: IPDatagram) -> Generator:
        """The paper's double-crossing: this thread entered through IP and
        now sends the reply back through IP on the same stacks."""
        echo: IcmpEcho = dgram.payload
        yield Cycles(ICMP_PROCESS_COST + self.acct(1))
        if echo.kind == IcmpEcho.REQUEST:
            self.requests_answered += 1
            reply = IcmpEcho(IcmpEcho.REPLY, echo.ident, echo.seq,
                             echo.payload_len)
            yield from stage.send_backward(
                (dgram.src_ip, reply, IPPROTO_ICMP))
            return True
        self.replies_seen += 1
        return True

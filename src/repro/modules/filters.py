"""Filter modules — policy enforcement level 4.

"Syntactically, filters are the same as any other module.  However, their
purpose is to enforce policy rather than to provide functionality."  A
filter sits between two modules in the graph and restricts the interface
that flows through it; the paper's example is a filter between TCP and IP
that narrows "receive packets" to "receive packets to port 80".

Filters work in both planes: at *demux* time (rejecting packets before a
path is even identified) and in the *data* plane (dropping non-conforming
messages on established paths).  The same vanilla TCP/IP modules work with
or without filters around them.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, Set

from repro.sim.cpu import Cycles
from repro.core.demux import DemuxResult
from repro.core.path import Stage
from repro.modules.base import Module, OpenResult
from repro.net.packet import IPDatagram, TCPSegment

FILTER_COST = 700


class FilterModule(Module):
    """Base filter: transparent pass-through with an inspection hook.

    Subclasses override :meth:`permit` (and optionally
    :meth:`permit_backward`); everything else — stage plumbing, demux
    chaining, drop counting — is shared.
    """

    interfaces = frozenset({"aio"})

    def __init__(self, kernel, name, pd):
        super().__init__(kernel, name, pd)
        self.dropped_demux = 0

    # -- policy hooks ----------------------------------------------------
    def permit(self, msg) -> bool:
        """Inspect inbound data; False drops it."""
        return True

    def permit_backward(self, msg) -> bool:
        """Inspect outbound data; False drops it."""
        return True

    # -- module plumbing ---------------------------------------------------
    def open(self, path, attrs, origin):
        stage = self.make_stage(path)
        extend = [n for n in self.graph.neighbors(self.name)
                  if origin is None or n != origin.name]
        return OpenResult(stage, extend)

    def demux(self, view) -> DemuxResult:
        if not self.permit(view):
            self.dropped_demux += 1
            return DemuxResult.drop(f"{self.name}-filter")
        nxt = self._next_inward()
        if nxt is None:
            return DemuxResult.drop(f"{self.name}-no-next")
        return DemuxResult.forward(nxt, view)

    def _next_inward(self) -> Optional[str]:
        """The neighbour further from the network (higher position)."""
        mine = self.graph.position(self.name)
        candidates = [n for n in self.graph.neighbors(self.name)
                      if self.graph.position(n) > mine]
        return candidates[0] if candidates else None

    def forward(self, stage: Stage, msg) -> Generator:
        yield Cycles(FILTER_COST + self.acct(1))
        if not self.permit(msg):
            return False
        result = yield from stage.send_forward(msg)
        return result

    def backward(self, stage: Stage, msg) -> Generator:
        yield Cycles(FILTER_COST + self.acct(1))
        if not self.permit_backward(msg):
            return False
        result = yield from stage.send_backward(msg)
        return result

    def handle_call(self, stage: Stage, request) -> Generator:
        """Filters pass synchronous calls through unchanged."""
        result = yield from stage.call_forward(request)
        return result


class PortFilter(FilterModule):
    """The paper's example: restrict TCP traffic to a set of ports.

    Placed between IP and TCP, it narrows the interface from "receive
    packets" to "receive packets to port 80" (or whichever ports are
    allowed).
    """

    def __init__(self, kernel, name, pd, allowed_ports: Iterable[int]):
        super().__init__(kernel, name, pd)
        self.allowed_ports: Set[int] = set(allowed_ports)

    def _segment_of(self, msg) -> Optional[TCPSegment]:
        if isinstance(msg, IPDatagram) and isinstance(msg.payload, TCPSegment):
            return msg.payload
        if isinstance(msg, TCPSegment):
            return msg
        return None

    def permit(self, msg) -> bool:
        seg = self._segment_of(msg)
        if seg is None:
            return True
        return seg.dst_port in self.allowed_ports

    def permit_backward(self, msg) -> bool:
        # Outbound: (dst_ip, segment) tuples from TCP.
        if isinstance(msg, tuple) and len(msg) == 2 \
                and isinstance(msg[1], TCPSegment):
            return msg[1].src_port in self.allowed_ports
        return True


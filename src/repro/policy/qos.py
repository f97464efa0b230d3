"""The QoS reservation policy (paper section 4.4.2).

"A proportional share scheduler is used to ensure that the path
responsible for this connection receives this bandwidth.  The web server
can only guarantee that enough resources for this stream are available on
the server."  The reservation is a ticket grant: the stream's path gets
enough tickets that even with every best-effort path runnable, its
guaranteed CPU share covers the cycles the stream needs.
"""

from __future__ import annotations

from repro.sim.clock import SERVER_CYCLE_HZ
from repro.policy.base import Policy


class QosPolicy(Policy):
    """Reserve CPU for QoS stream paths via proportional-share tickets."""

    def __init__(self, bandwidth_bps: int = 1_000_000,
                 cycles_per_byte: float = 40.0,
                 pd_cycles_per_byte: float = 155.0,
                 max_competing_owners: int = 80):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = bandwidth_bps
        self.cycles_per_byte = cycles_per_byte
        self.pd_cycles_per_byte = pd_cycles_per_byte
        self.max_competing_owners = max_competing_owners
        self._pd_enabled = False

    def required_share(self, pd_enabled: bool = False) -> float:
        """CPU fraction the stream needs (sending + ACK processing).

        Protection domains multiply the per-byte cost: every data segment
        pays the TCP->IP->ETH crossings on top of the protocol work.
        """
        per_byte = self.pd_cycles_per_byte if pd_enabled \
            else self.cycles_per_byte
        return min(0.9, (self.bandwidth_bps * per_byte) / SERVER_CYCLE_HZ)

    def tickets(self, pd_enabled: bool = False) -> int:
        """Tickets such that share >= required even against a full house
        of single-ticket best-effort owners."""
        f = self.required_share(pd_enabled)
        n = self.max_competing_owners
        return max(1, int(f * n / (1 - f)) + 1)

    def apply(self, server) -> None:
        self._pd_enabled = server.kernel.pd_enabled
        server.http.stream_tickets = self.tickets(self._pd_enabled)
        server.http.stream_rate_bps = self.bandwidth_bps

    def describe(self) -> str:
        return (f"QosPolicy({self.bandwidth_bps} B/s, "
                f"share>={self.required_share(self._pd_enabled):.0%}, "
                f"tickets={self.tickets(self._pd_enabled)})")

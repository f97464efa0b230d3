"""The penalty-box policy (paper section 4.4.4).

"Clients that have previously violated some resource bound — e.g., the CGI
attackers in our example — can be identified and their future connection
request packets demultiplexed to a different distinct passive path with a
very small resource allocation (or a very low priority)."

Mechanically: the policy adds one *penalty* passive path to the listener,
wires a predicate ("is this source a known offender?") into demux-time
selection, and hooks the kernel's runaway handler to record the peer IP of
every path killed for exceeding its runtime limit.
"""

from __future__ import annotations

from typing import List, Set

from repro.policy.base import Policy


class MisbehaverPolicy(Policy):
    """Demux known offenders to a low-allocation penalty passive path."""

    def __init__(self, penalty_cap: int = 2):
        if penalty_cap <= 0:
            raise ValueError("penalty cap must be positive")
        self.penalty_cap = penalty_cap
        self.offenders: Set[str] = set()
        self.offenses_recorded = 0
        self._server = None

    # ------------------------------------------------------------------
    def listen_specs(self) -> List:
        from repro.modules.http import ListenSpec
        # The penalty path plus a catch-all: when composed with another
        # policy that already provides passive paths (e.g. the SYN-flood
        # split), the extra catch-all is simply never reached.
        return [ListenSpec(port=80, name="passive-penalty",
                           syn_cap=self.penalty_cap,
                           penalty=True),
                ListenSpec(port=80, name="passive-default")]

    def apply(self, server) -> None:
        self._server = server
        server.tcp.penalty_predicate = self.is_offender
        original = server.kernel.runaway_policy

        def record_and_kill(thread):
            owner = thread.owner
            attrs = getattr(owner, "attributes", None)
            peer = attrs.get("peer_ip") if attrs is not None else None
            original(thread)
            if peer is not None:
                self.record_offender(peer)

        server.kernel.runaway_policy = record_and_kill

    # ------------------------------------------------------------------
    def record_offender(self, ip: str) -> None:
        self.offenses_recorded += 1
        self.offenders.add(ip)

    def is_offender(self, ip: str) -> bool:
        return ip in self.offenders

    def penalty_path(self):
        if self._server is None:
            return None
        listener = self._server.tcp.listeners.get(80)
        return listener.penalty_path if listener else None

    def describe(self) -> str:
        return (f"MisbehaverPolicy(cap={self.penalty_cap}, "
                f"offenders={len(self.offenders)})")

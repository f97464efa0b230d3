"""The runaway-CPU policy (paper sections 4.3.2 and 4.4.3).

"Escort then times out the thread after 2ms and destroys the owner."  The
mechanism is the per-owner maximum thread runtime without yields, enforced
by the CPU, plus ``pathKill``, which reclaims every resource the path holds
in every protection domain.
"""

from __future__ import annotations

from repro.sim.clock import SERVER_CYCLE_HZ
from repro.policy.base import Policy


class RunawayPolicy(Policy):
    """Kill any path whose thread runs more than ``max_runtime_ms``."""

    def __init__(self, max_runtime_ms: float = 2.0):
        if max_runtime_ms <= 0:
            raise ValueError("runtime limit must be positive")
        self.max_runtime_ms = max_runtime_ms

    @property
    def limit_cycles(self) -> int:
        return int(self.max_runtime_ms * SERVER_CYCLE_HZ / 1000)

    def apply(self, server) -> None:
        # Every active path gets the limit at creation; the kernel's
        # default runaway handler destroys the offending owner, which is
        # exactly this policy's containment step.
        server.tcp.active_path_runtime_limit = self.limit_cycles

    def describe(self) -> str:
        return f"RunawayPolicy({self.max_runtime_ms} ms)"

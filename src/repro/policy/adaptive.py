"""The adaptive policy: static defenses wrapped in a feedback loop.

``AdaptivePolicy`` composes zero or more static policies (their listen
specs and knobs apply unchanged as the *initial* configuration) and then
attaches the closed-loop :class:`~repro.defense.DefenseController`, which
adjusts the machine online: rate limits appear on sources that turn hot,
SYN handling goes stateless past a half-open watermark, quotas flip to
throttle-first, and the webserver degrades gracefully instead of
collapsing — each rung releasing again when its trigger signal recovers.
"""

from __future__ import annotations

from typing import List, Optional

from repro.policy.base import Policy


class AdaptivePolicy(Policy):
    """Wrap static policies with the closed-loop defense controller."""

    def __init__(self, *wrapped: Policy, prefix_rate_floor: float = 300.0):
        self.wrapped: List[Policy] = list(wrapped)
        self.prefix_rate_floor = prefix_rate_floor
        self.controller = None

    def listen_specs(self) -> Optional[List]:
        specs: Optional[List] = None
        for policy in self.wrapped:
            inner = policy.listen_specs()
            if inner is not None:
                specs = (specs or []) + list(inner)
        return specs

    def apply(self, server) -> None:
        from repro.defense import DefenseController
        for policy in self.wrapped:
            policy.apply(server)
        self.controller = DefenseController(
            server, prefix_rate_floor=self.prefix_rate_floor)
        self.controller.start()
        watchdog = server.kernel.watchdog
        if watchdog is not None and hasattr(watchdog, "attach_defense"):
            watchdog.attach_defense(self.controller)

    def describe(self) -> str:
        inner = ", ".join(p.describe() for p in self.wrapped) or "none"
        return f"AdaptivePolicy(wrapping: {inner})"

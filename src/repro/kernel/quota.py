"""Resource quotas: the *detection* step for memory-shaped attacks.

The paper's three-step recipe is accounting → detection → containment.
The runaway policy detects CPU abuse; this module supplies the analogous
detector for memory: per-owner limits on pages, kernel memory, heap bytes,
events and semaphores, checked against the Owner counters the accounting
mechanism already maintains.  Exceeding a limit triggers the kernel's
violation handler — by default ``kill_owner``, the same containment step.

Checks are *pull-based*: the kernel consults :func:`check_quota` after the
operations that grow usage (page allocation, heap allocation, IOBuffer
allocation, event/semaphore creation).  This mirrors Escort, where "many
policies require that the owner passed as argument to the allocation
function must match the owner of the current thread" — the allocation path
is where policy meets accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.kernel.owner import Owner
from repro.kernel.sched import STRIDE1

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

#: Cycles' worth of stride-pass penalty applied by a throttle: the owner
#: behaves as if it had already burned this much CPU, so the proportional
#: scheduler naturally runs everyone else first for a while.
THROTTLE_PENALTY_CYCLES = 100_000
#: Divisor applied to a throttled owner's ticket allocation.
THROTTLE_TICKET_DIVISOR = 4


@dataclass
class ResourceQuota:
    """Per-owner limits; ``None`` means unlimited."""

    max_pages: Optional[int] = None
    max_kmem: Optional[int] = None
    max_heap_bytes: Optional[int] = None
    max_events: Optional[int] = None
    max_semaphores: Optional[int] = None

    def violation(self, owner: Owner) -> Optional[str]:
        """The first limit ``owner`` exceeds, or None."""
        usage = owner.usage
        if self.max_pages is not None and usage.pages > self.max_pages:
            return f"pages {usage.pages} > {self.max_pages}"
        if self.max_kmem is not None and usage.kmem > self.max_kmem:
            return f"kmem {usage.kmem} > {self.max_kmem}"
        if self.max_heap_bytes is not None \
                and usage.heap_bytes > self.max_heap_bytes:
            return f"heap {usage.heap_bytes} > {self.max_heap_bytes}"
        if self.max_events is not None and usage.events > self.max_events:
            return f"events {usage.events} > {self.max_events}"
        if self.max_semaphores is not None \
                and usage.semaphores > self.max_semaphores:
            return f"semaphores {usage.semaphores} > {self.max_semaphores}"
        return None


class QuotaEnforcer:
    """Attaches quotas to owners and reacts to violations."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.violations: List[tuple] = []  # (owner_name, reason)
        self.throttles: List[tuple] = []   # (owner_name, reason)
        #: "kill" destroys violators outright; "throttle" first demotes
        #: their scheduler share and only kills repeat violators — the
        #: non-lethal rung the adaptive defense controller escalates
        #: through before containment.
        self.mode: str = "kill"
        #: What to do with a violator; default is mode-directed
        #: enforcement (throttle-then-kill or straight kill).
        self.on_violation: Callable[[Owner, str], None] = self._enforce

    def set_mode(self, mode: str) -> None:
        if mode not in ("kill", "throttle"):
            raise ValueError(f"unknown quota mode {mode!r}")
        self.mode = mode

    def _enforce(self, owner: Owner, reason: str) -> None:
        if self.mode == "throttle" and self.throttle(owner, reason):
            return
        self._kill(owner, reason)

    def _kill(self, owner: Owner, reason: str) -> None:
        if not owner.destroyed:
            self.kernel.kill_owner(owner)

    def throttle(self, owner: Owner, reason: str) -> bool:
        """Demote ``owner``'s scheduler share instead of killing it.

        Returns False when the owner is already gone or was throttled
        before (a second violation while throttled means the demotion did
        not contain it — the caller falls through to the kill rung).
        """
        if owner.destroyed or owner.policy_state.get("throttled"):
            return False
        owner.policy_state["throttled"] = True
        sched = owner.sched
        sched.tickets = max(1, sched.tickets // THROTTLE_TICKET_DIVISOR)
        sched.stride_pass += THROTTLE_PENALTY_CYCLES * STRIDE1
        self.throttles.append((owner.name, reason))
        return True

    def set_quota(self, owner: Owner, quota: ResourceQuota) -> None:
        owner.policy_state["quota"] = quota

    def check(self, owner: Owner) -> bool:
        """Check ``owner`` against its quota; True if it survived.

        Safe to call from any kernel context; destruction of the current
        thread's owner is exactly the preempt-by-destroying semantics the
        thread model already supports.
        """
        quota = owner.policy_state.get("quota")
        if quota is None or owner.destroyed:
            return True
        reason = quota.violation(owner)
        if reason is None:
            return True
        self.violations.append((owner.name, reason))
        self.on_violation(owner, reason)
        return not owner.destroyed

    def sweep(self, owners) -> int:
        """Check a collection of owners; returns the number killed.

        Used by the periodic enforcement event (memory can also grow via
        charges made *to* an owner from other contexts, e.g. IOBuffer
        association, so a background sweep closes that gap).
        """
        killed = 0
        for owner in list(owners):
            if not self.check(owner):
                killed += 1
        return killed
